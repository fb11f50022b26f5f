// Package multicast computes delivery reliability to *many* subscribers at
// once — the actual service a P2P streaming system provides (§I of the
// paper frames reliability per sink; a session succeeds when every
// subscriber is served).
//
// Semantics. The stream is replicated, not consumed: a link carries each
// sub-stream at most once no matter how many downstream peers read it, so
// delivering d sub-streams to every node is a packing of d arc-disjoint
// (capacity-respecting) spanning arborescences rooted at the source. By
// Edmonds' arborescence-packing theorem such a packing exists iff the
// s→v max flow is at least d for every node v — so "every target can
// receive" with the per-target max-flow criterion is *exact* when the
// targets are all nodes, and it is the standard feasibility criterion for
// replicated push overlays in general (relay peers hold the stream too).
package multicast

import (
	"fmt"
	"math"
	"math/rand"

	"flowrel/internal/anytime"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/reliability"
)

// Result is an exact all-targets reliability.
type Result struct {
	Reliability float64
	Targets     int
	Stats       reliability.Stats
	// Partial reports an interrupted run; [Lo, Hi] is then a certified
	// interval around the true reliability (examined admitting mass up to
	// one minus examined failing mass) and Reliability its midpoint.
	Partial bool
	Lo, Hi  float64
	Reason  string
}

// targetsOrAll returns the target list, defaulting to every node except s.
func targetsOrAll(g *graph.Graph, s graph.NodeID, targets []graph.NodeID) ([]graph.NodeID, error) {
	if err := g.CheckNode(s); err != nil {
		return nil, err
	}
	if targets == nil {
		for i := 0; i < g.NumNodes(); i++ {
			if graph.NodeID(i) != s {
				targets = append(targets, graph.NodeID(i))
			}
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("multicast: no targets")
	}
	for _, t := range targets {
		if err := g.CheckNode(t); err != nil {
			return nil, err
		}
		if t == s {
			return nil, fmt.Errorf("multicast: source %d cannot be a target", s)
		}
	}
	return targets, nil
}

// Naive computes the exact probability that every target can receive all d
// sub-streams, by enumerating the 2^{|E|} failure configurations; each
// configuration is checked with per-target max flows (early exit on the
// first starved target). Parallel and deterministic.
func Naive(g *graph.Graph, s graph.NodeID, targets []graph.NodeID, d int, opt reliability.Options) (Result, error) {
	if g == nil {
		return Result{}, fmt.Errorf("multicast: nil graph")
	}
	if d < 1 {
		return Result{}, fmt.Errorf("multicast: demand %d must be ≥ 1", d)
	}
	targets, err := targetsOrAll(g, s, targets)
	if err != nil {
		return Result{}, err
	}
	m := g.NumEdges()
	if m > conf.MaxEnumEdges {
		return Result{}, &conf.ErrTooManyEdges{N: m, Where: "graph"}
	}
	pFail := make([]float64, m)
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}
	table := conf.NewTable(pFail)
	proto, handles := maxflow.FromGraph(g)

	chunks := conf.SplitEnum(m)
	partial := make([]float64, len(chunks))
	examined := make([]float64, len(chunks))
	stats := make([]reliability.Stats, len(chunks))
	err = anytime.Run(opt.Ctl, opt.Parallelism, len(chunks), "multicast enumeration worker", func(ci int, cur *uint64) {
		nw := proto.Clone()
		var st reliability.Stats
		sum, exam := 0.0, 0.0
		anytime.Walk(opt.Ctl, opt.TestHook, nw, handles, chunks[ci][0], chunks[ci][1], cur, func(mask uint64) {
			st.Configs++
			p := table.Prob(mask)
			exam += p
			if allServed(nw, int32(s), targets, d) {
				st.Admitting++
				sum += p
			}
		})
		st.MaxFlowCalls = nw.Stats.MaxFlowCalls
		partial[ci], examined[ci], stats[ci] = sum, exam, st
	})
	if err != nil {
		return Result{}, err
	}

	var r reliability.Result
	exam := 0.0
	for ci := range chunks {
		r.Reliability += partial[ci]
		exam += examined[ci]
		r.Stats.Configs += stats[ci].Configs
		r.Stats.Admitting += stats[ci].Admitting
		r.Stats.MaxFlowCalls += stats[ci].MaxFlowCalls
	}
	r.Seal(opt.Ctl, r.Reliability, exam-r.Reliability)
	return Result{
		Reliability: r.Reliability,
		Targets:     len(targets),
		Stats:       r.Stats,
		Partial:     r.Partial,
		Lo:          r.Lo,
		Hi:          r.Hi,
		Reason:      r.Reason,
	}, nil
}

func allServed(nw *maxflow.Network, s int32, targets []graph.NodeID, d int) bool {
	for _, t := range targets {
		if nw.MaxFlow(s, int32(t), d) < d {
			return false
		}
	}
	return true
}

// Estimate is a Monte Carlo all-targets estimate.
type Estimate = reliability.Estimate

// MonteCarlo estimates the all-targets reliability by sampling;
// deterministic per seed, any graph size.
func MonteCarlo(g *graph.Graph, s graph.NodeID, targets []graph.NodeID, d, samples int, seed int64, opt reliability.Options) (Estimate, error) {
	return MonteCarloRand(g, s, targets, d, samples, rand.New(rand.NewSource(seed)), opt)
}

// MonteCarloRand is MonteCarlo drawing its randomness from an injected
// source. Each sampling block gets its own generator seeded from rng up
// front, so the estimate is independent of worker scheduling.
func MonteCarloRand(g *graph.Graph, s graph.NodeID, targets []graph.NodeID, d, samples int, rng *rand.Rand, opt reliability.Options) (Estimate, error) {
	if rng == nil {
		return Estimate{}, fmt.Errorf("multicast: MonteCarloRand wants a non-nil rng")
	}
	if g == nil {
		return Estimate{}, fmt.Errorf("multicast: nil graph")
	}
	if d < 1 {
		return Estimate{}, fmt.Errorf("multicast: demand %d must be ≥ 1", d)
	}
	if samples < 1 {
		return Estimate{}, fmt.Errorf("multicast: sample count %d must be ≥ 1", samples)
	}
	targets, err := targetsOrAll(g, s, targets)
	if err != nil {
		return Estimate{}, err
	}
	proto, handles := maxflow.FromGraph(g)
	pFail := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}

	const blockSize = 1024
	nBlocks := (samples + blockSize - 1) / blockSize
	blockSeeds := make([]int64, nBlocks)
	for b := range blockSeeds {
		blockSeeds[b] = rng.Int63()
	}
	hits := make([]int, nBlocks)
	done := make([]int, nBlocks)
	err = anytime.Run(opt.Ctl, opt.Parallelism, nBlocks, "multicast sampling worker", func(b int, cur *uint64) {
		rng := rand.New(rand.NewSource(blockSeeds[b]))
		nw := proto.Clone()
		h := 0
		done[b] = anytime.Sample(opt.Ctl, opt.TestHook, nw, min(blockSize, samples-b*blockSize), cur, func() {
			for j := range handles {
				nw.SetEnabled(handles[j], rng.Float64() >= pFail[j])
			}
			if allServed(nw, int32(s), targets, d) {
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

// PerTarget returns each target's marginal reliability (the probability
// that this particular target can receive d), computed exactly with the
// factoring engine. The all-targets reliability is at most the minimum of
// these marginals.
func PerTarget(g *graph.Graph, s graph.NodeID, targets []graph.NodeID, d int, opt reliability.Options) ([]float64, error) {
	if g == nil {
		return nil, fmt.Errorf("multicast: nil graph")
	}
	if d < 1 {
		return nil, fmt.Errorf("multicast: demand %d must be ≥ 1", d)
	}
	targets, err := targetsOrAll(g, s, targets)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(targets))
	for i, t := range targets {
		res, err := reliability.Factoring(g, graph.Demand{S: s, T: t, D: d}, opt)
		if err != nil {
			return nil, err
		}
		out[i] = res.Reliability
	}
	return out, nil
}
