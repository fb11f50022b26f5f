package reliability

import (
	"fmt"
	"math"
	"math/rand"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// UnreliabilityIS estimates the UNreliability U = 1 − R by importance
// sampling with failure biasing: links are sampled down with probability
// q(e) = max(p(e), bias) and each sample carries the likelihood ratio
// Π p(x)/q(x). For highly reliable networks plain Monte Carlo wastes
// almost every sample on all-up configurations; failure biasing drives
// samples into the failure region while staying unbiased, cutting the
// relative error of U by orders of magnitude at equal sample count.
//
// The returned Estimate describes U (not R); use 1−U for the reliability.
// bias must lie in (0, 1); a few times the typical link failure
// probability is a reasonable choice, 0.25–0.5 a robust default.
//
// With opt.Ctl the run is anytime: an interrupted run returns the
// estimate over the samples completed so far with Partial set.
func UnreliabilityIS(g *graph.Graph, dem graph.Demand, samples int, seed int64, bias float64, opt Options) (Estimate, error) {
	if err := validate(g, dem); err != nil {
		return Estimate{}, err
	}
	if samples < 1 {
		return Estimate{}, fmt.Errorf("reliability: sample count %d must be ≥ 1", samples)
	}
	if bias <= 0 || bias >= 1 {
		return Estimate{}, fmt.Errorf("reliability: bias %g must be in (0, 1)", bias)
	}
	m := g.NumEdges()
	p := make([]float64, m)
	q := make([]float64, m)
	// wDown[e] = p/q (weight factor when e sampled down),
	// wUp[e] = (1-p)/(1-q).
	wDown := make([]float64, m)
	wUp := make([]float64, m)
	for i, e := range g.Edges() {
		p[i] = e.PFail
		q[i] = math.Max(p[i], bias)
		wDown[i] = p[i] / q[i]
		wUp[i] = (1 - p[i]) / (1 - q[i])
	}
	proto, handles := maxflow.FromGraph(g)
	s, t := int32(dem.S), int32(dem.T)

	const blockSize = 4096
	nBlocks := (samples + blockSize - 1) / blockSize
	type blockSum struct{ w, w2 float64 }
	sums := make([]blockSum, nBlocks)
	done := make([]int, nBlocks)
	err := anytime.Run(opt.Ctl, opt.Parallelism, nBlocks, "importance sampling worker", func(b int, cur *uint64) {
		rng := rand.New(rand.NewSource(seed + int64(b)*0x5851F42D4C957F2D))
		nw := proto.Clone()
		var sw, sw2 float64
		done[b] = anytime.Sample(opt.Ctl, opt.TestHook, nw, min(blockSize, samples-b*blockSize), cur, func() {
			w := 1.0
			for j := range handles {
				down := rng.Float64() < q[j]
				nw.SetEnabled(handles[j], !down)
				if down {
					w *= wDown[j]
				} else {
					w *= wUp[j]
				}
			}
			if nw.MaxFlow(s, t, dem.D) < dem.D {
				sw += w
				sw2 += w * w
			}
		})
		sums[b] = blockSum{sw, sw2}
	})
	if err != nil {
		return Estimate{}, err
	}

	var sw, sw2 float64
	completed := 0
	for b := range sums {
		sw += sums[b].w
		sw2 += sums[b].w2
		completed += done[b]
	}
	est := Estimate{Samples: completed}
	if completed < samples {
		est.Partial = true
		est.Reason = opt.Ctl.Reason()
	}
	if completed == 0 {
		return est, nil
	}
	n := float64(completed)
	mean := sw / n
	varEst := (sw2/n - mean*mean) / n
	if varEst < 0 {
		varEst = 0
	}
	est.Reliability = mean // the estimated UNreliability
	est.StdErr = math.Sqrt(varEst)
	return est, nil
}
