package reliability

import (
	"fmt"
	"math"
	"math/rand"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// Estimate is a Monte Carlo reliability estimate.
type Estimate struct {
	Reliability float64
	StdErr      float64 // standard error of the estimate
	Samples     int
	Admitting   int
	// Partial reports an interrupted run: Samples is then the number of
	// samples actually completed (possibly 0, in which case the estimate
	// is vacuous) and the estimator statistics cover only those.
	Partial bool
	// Reason says why an interrupted run stopped.
	Reason string
}

// ConfidenceInterval returns the estimate ± z·stderr interval clamped to
// [0, 1]; z = 1.96 gives ≈95 % coverage.
func (e Estimate) ConfidenceInterval(z float64) (lo, hi float64) {
	lo = e.Reliability - z*e.StdErr
	hi = e.Reliability + z*e.StdErr
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// MonteCarlo estimates the reliability by sampling failure configurations.
// The sample set is split into fixed-size blocks, each driven by its own
// deterministic PRNG stream derived from seed, so the result is identical
// for any Parallelism setting. Unlike the exact engines it scales to
// arbitrarily large graphs.
//
// With opt.Ctl the run is anytime: an interrupted run returns the
// estimate over the samples completed so far with Partial set. (An
// interrupted run is deterministic only in distribution — how many
// samples finish before the stop lands depends on scheduling.)
func MonteCarlo(g *graph.Graph, dem graph.Demand, samples int, seed int64, opt Options) (Estimate, error) {
	if err := validate(g, dem); err != nil {
		return Estimate{}, err
	}
	if samples < 1 {
		return Estimate{}, fmt.Errorf("reliability: sample count %d must be ≥ 1", samples)
	}
	proto, handles := maxflow.FromGraph(g)
	pFail := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}
	s, t := int32(dem.S), int32(dem.T)

	const blockSize = 4096
	nBlocks := (samples + blockSize - 1) / blockSize
	hits := make([]int, nBlocks)
	done := make([]int, nBlocks)
	err := anytime.Run(opt.Ctl, opt.Parallelism, nBlocks, "Monte Carlo worker", func(b int, cur *uint64) {
		rng := rand.New(rand.NewSource(seed + int64(b)*0x5851F42D4C957F2D))
		nw := proto.Clone()
		h := 0
		done[b] = anytime.Sample(opt.Ctl, opt.TestHook, nw, min(blockSize, samples-b*blockSize), cur, func() {
			for j := range handles {
				nw.SetEnabled(handles[j], rng.Float64() >= pFail[j])
			}
			if nw.MaxFlow(s, t, dem.D) >= dem.D {
				h++
			}
		})
		hits[b] = h
	})
	if err != nil {
		return Estimate{}, err
	}

	total, completed := 0, 0
	for b := range hits {
		total += hits[b]
		completed += done[b]
	}
	est := Estimate{Samples: completed, Admitting: total}
	if completed < samples {
		est.Partial = true
		est.Reason = opt.Ctl.Reason()
	}
	if completed == 0 {
		return est, nil
	}
	p := float64(total) / float64(completed)
	est.Reliability = p
	est.StdErr = math.Sqrt(p * (1 - p) / float64(completed))
	return est, nil
}
