// Package dist computes the full probability distribution of the
// deliverable rate: P(max-flow from s to t equals v) for v = 0…d, under
// independent link failures. The flow reliability is the upper tail
// P(F ≥ d), but P2P streaming cares about the whole distribution — with
// layered or MDC-coded streams, receiving j of d sub-streams yields
// quality level j (§II of the paper motivates multiple-tree systems
// exactly this way). One distribution computation therefore answers every
// partial-delivery question at once:
//
//	P(full stream)  = P(F ≥ d)
//	P(≥ j layers)   = Σ_{v ≥ j} P(F = v)
//	E[delivered]    = Σ_v v·P(F = v)
package dist

import (
	"fmt"
	"math/rand"

	"flowrel/internal/anytime"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/reliability"
)

// Distribution is the law of the deliverable rate, truncated at d:
// P[v] = P(min(maxflow, d) = v) for v = 0…d.
//
// A Partial distribution is a certified under-approximation: every tail
// AtLeast(j) — and hence Reliability() — is a guaranteed lower bound on
// the true tail, and the mass Unexamined() was never classified and may
// fall in any bucket.
type Distribution struct {
	D int
	P []float64 // length D+1
	// Partial reports an interrupted computation (see type comment).
	Partial bool
	// Reason says why an interrupted run stopped.
	Reason string
}

// Unexamined returns the probability mass an interrupted run never
// classified (0 for a complete run, up to float jitter).
func (ds Distribution) Unexamined() float64 {
	sum := 0.0
	for _, p := range ds.P {
		sum += p
	}
	if sum > 1 {
		return 0
	}
	return 1 - sum
}

// Reliability returns P(F ≥ D) — the paper's reliability.
func (ds Distribution) Reliability() float64 { return ds.P[ds.D] }

// AtLeast returns P(F ≥ j) for 0 ≤ j ≤ D.
func (ds Distribution) AtLeast(j int) float64 {
	if j <= 0 {
		return 1
	}
	if j > ds.D {
		return 0
	}
	p := 0.0
	for v := j; v <= ds.D; v++ {
		p += ds.P[v]
	}
	return p
}

// Mean returns E[min(F, D)], the expected number of delivered sub-streams.
func (ds Distribution) Mean() float64 {
	m := 0.0
	for v, p := range ds.P {
		m += float64(v) * p
	}
	return m
}

// MeanFraction returns Mean()/D, the expected delivered fraction.
func (ds Distribution) MeanFraction() float64 { return ds.Mean() / float64(ds.D) }

func (ds Distribution) String() string {
	return fmt.Sprintf("dist{d=%d, R=%.6f, E=%.4f}", ds.D, ds.Reliability(), ds.Mean())
}

// Exact computes the distribution by enumerating all 2^{|E|} failure
// configurations once — each configuration's max flow (computed up to d)
// classifies it into one bucket, so the whole distribution costs the same
// as a single naive reliability computation. Parallel and deterministic.
func Exact(g *graph.Graph, dem graph.Demand, opt reliability.Options) (Distribution, error) {
	if g == nil {
		return Distribution{}, fmt.Errorf("dist: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Distribution{}, err
	}
	m := g.NumEdges()
	if m > conf.MaxEnumEdges {
		return Distribution{}, &conf.ErrTooManyEdges{N: m, Where: "graph"}
	}
	pFail := make([]float64, m)
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}
	table := conf.NewTable(pFail)
	proto, handles := maxflow.FromGraph(g)
	s, t := int32(dem.S), int32(dem.T)

	chunks := conf.SplitEnum(m)
	partial := make([][]float64, len(chunks))
	err := anytime.Run(opt.Ctl, opt.Parallelism, len(chunks), "distribution enumeration worker", func(ci int, cur *uint64) {
		nw := proto.Clone()
		buckets := make([]float64, dem.D+1)
		anytime.Walk(opt.Ctl, opt.TestHook, nw, handles, chunks[ci][0], chunks[ci][1], cur, func(mask uint64) {
			buckets[nw.MaxFlow(s, t, dem.D)] += table.Prob(mask)
		})
		partial[ci] = buckets
	})
	if err != nil {
		return Distribution{}, err
	}

	out := Distribution{D: dem.D, P: make([]float64, dem.D+1)}
	for _, buckets := range partial {
		for v, p := range buckets {
			out.P[v] += p
		}
	}
	if opt.Ctl.Stopped() {
		out.Partial = true
		out.Reason = opt.Ctl.Reason()
	}
	return out, nil
}

// Factored computes the distribution as d+1 tail probabilities using the
// factoring engine: P(F ≥ j) is the flow reliability at demand j, and
// P(F = v) = P(F ≥ v) − P(F ≥ v+1). Slower per-point than Exact on tiny
// graphs but reaches far larger ones thanks to pruning.
//
// With opt.Ctl an interrupted run substitutes each unfinished tail's
// certified lower bound (Result.Lo). The bounds of independent runs need
// not be monotone in j, so they are monotonized with a suffix max — the
// true tails decrease in j, hence max(Lo_j, …, Lo_D) still lower-bounds
// P(F ≥ j) — before differencing into buckets. That keeps every
// AtLeast(j) certified (the Partial-Distribution contract), though a
// single bucket of a Partial result may overshoot its true value.
func Factored(g *graph.Graph, dem graph.Demand, opt reliability.Options) (Distribution, error) {
	if g == nil {
		return Distribution{}, fmt.Errorf("dist: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Distribution{}, err
	}
	out := Distribution{D: dem.D, P: make([]float64, dem.D+1)}
	tails := make([]float64, dem.D+2) // tails[j] = P(F ≥ j), certified lower
	tails[0] = 1
	for j := 1; j <= dem.D; j++ {
		res, err := reliability.Factoring(g, graph.Demand{S: dem.S, T: dem.T, D: j}, opt)
		if err != nil {
			return Distribution{}, err
		}
		if res.Partial {
			out.Partial = true
			out.Reason = res.Reason
			tails[j] = res.Lo
		} else {
			tails[j] = res.Reliability
		}
	}
	for j := dem.D; j >= 0; j-- {
		if tails[j] < tails[j+1] {
			tails[j] = tails[j+1] // suffix max (float jitter on complete runs)
		}
	}
	for v := 0; v <= dem.D; v++ {
		out.P[v] = tails[v] - tails[v+1]
	}
	return out, nil
}

// Sampled estimates the distribution by Monte Carlo; deterministic per
// seed regardless of parallelism. StdErr of each bucket is ≤ 1/(2√n).
//
// A Partial Sampled result is normalized over the samples actually
// completed — a valid smaller-sample estimate rather than the certified
// under-approximation the exact engines return (estimates certify
// nothing either way).
func Sampled(g *graph.Graph, dem graph.Demand, samples int, seed int64, opt reliability.Options) (Distribution, error) {
	if g == nil {
		return Distribution{}, fmt.Errorf("dist: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Distribution{}, err
	}
	if samples < 1 {
		return Distribution{}, fmt.Errorf("dist: sample count %d must be ≥ 1", samples)
	}
	proto, handles := maxflow.FromGraph(g)
	pFail := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}
	s, t := int32(dem.S), int32(dem.T)

	const blockSize = 4096
	nBlocks := (samples + blockSize - 1) / blockSize
	counts := make([][]int64, nBlocks)
	done := make([]int, nBlocks)
	err := anytime.Run(opt.Ctl, opt.Parallelism, nBlocks, "distribution sampling worker", func(b int, cur *uint64) {
		rng := rand.New(rand.NewSource(seed + int64(b)*0x5851F42D4C957F2D))
		nw := proto.Clone()
		local := make([]int64, dem.D+1)
		done[b] = anytime.Sample(opt.Ctl, opt.TestHook, nw, min(blockSize, samples-b*blockSize), cur, func() {
			for j := range handles {
				nw.SetEnabled(handles[j], rng.Float64() >= pFail[j])
			}
			local[nw.MaxFlow(s, t, dem.D)]++
		})
		counts[b] = local
	})
	if err != nil {
		return Distribution{}, err
	}

	out := Distribution{D: dem.D, P: make([]float64, dem.D+1)}
	completed := 0
	for b, local := range counts {
		completed += done[b]
		for v, c := range local {
			out.P[v] += float64(c)
		}
	}
	if completed < samples {
		out.Partial = true
		out.Reason = opt.Ctl.Reason()
	}
	if completed == 0 {
		return out, nil
	}
	for v := range out.P {
		out.P[v] /= float64(completed)
	}
	return out, nil
}
