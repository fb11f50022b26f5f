package reliability

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"

	"flowrel/internal/anytime"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// Naive computes the exact reliability by enumerating all 2^|E| failure
// configurations (Figure 1 of the paper). The configuration space is split
// into contiguous chunks processed by parallel workers, each owning a
// private flow network; per-chunk partial sums are reduced in chunk order,
// so the result is deterministic for a fixed chunk count.
//
// With opt.Ctl the run is anytime: workers poll the controller every
// anytime.CheckEvery configurations, and an interrupted run returns a
// partial Result whose [Lo, Hi] interval is certified — Lo is the
// admitting mass among examined configurations and 1−Hi the refuted mass,
// so the true reliability always lies inside.
func Naive(g *graph.Graph, dem graph.Demand, opt Options) (Result, error) {
	if err := validate(g, dem); err != nil {
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
	s, t := int32(dem.S), int32(dem.T)

	chunks := conf.SplitEnum(m)
	partial := make([]float64, len(chunks))
	examined := make([]float64, len(chunks))
	stats := make([]Stats, len(chunks))
	err := anytime.Run(opt.Ctl, opt.Parallelism, len(chunks), "naive enumeration worker", func(ci int, cur *uint64) {
		nw := proto.Clone()
		var st Stats
		sum, exam := 0.0, 0.0
		anytime.Walk(opt.Ctl, opt.TestHook, nw, handles, chunks[ci][0], chunks[ci][1], cur, func(mask uint64) {
			st.Configs++
			p := table.Prob(mask)
			exam += p
			if nw.MaxFlow(s, t, dem.D) >= dem.D {
				st.Admitting++
				sum += p
			}
		})
		st.MaxFlowCalls, st.AugmentUnits = nw.Stats.MaxFlowCalls, nw.Stats.AugmentUnits
		partial[ci], examined[ci], stats[ci] = sum, exam, st
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{}
	exam := 0.0
	for ci := range chunks {
		res.Reliability += partial[ci]
		exam += examined[ci]
		res.Stats.add(stats[ci])
	}
	res.Seal(opt.Ctl, res.Reliability, exam-res.Reliability)
	return res, nil
}

// NaiveExact computes the reliability by the same enumeration in exact
// rational arithmetic (link probabilities are taken as the exact rational
// values of their float64 representations). It is the correctness oracle
// for every floating-point engine. Sequential; exponential in |E|.
func NaiveExact(g *graph.Graph, dem graph.Demand) (*big.Rat, error) {
	return NaiveExactCtx(context.Background(), g, dem)
}

// NaiveExactCtx is NaiveExact with cooperative cancellation. The oracle is
// all-or-nothing: a cancelled run returns an error wrapping
// anytime.ErrInterrupted rather than a partial rational.
func NaiveExactCtx(ctx context.Context, g *graph.Graph, dem graph.Demand) (*big.Rat, error) {
	if err := validate(g, dem); err != nil {
		return nil, err
	}
	m := g.NumEdges()
	if m > conf.MaxEnumEdges {
		return nil, &conf.ErrTooManyEdges{N: m, Where: "graph"}
	}
	pFail := make([]*big.Rat, m)
	for i, e := range g.Edges() {
		// SetFloat64 is exact: every finite float64 is rational.
		pFail[i] = new(big.Rat).SetFloat64(e.PFail)
	}
	nw, handles := maxflow.FromGraph(g)
	s, t := int32(dem.S), int32(dem.T)
	sum := new(big.Rat)
	total := uint64(1) << uint(m)
	prev := ^uint64(0)
	for mask := uint64(0); mask < total; mask++ {
		if mask&(anytime.CheckEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: oracle enumeration at configuration %d of %d (%v)", anytime.ErrInterrupted, mask, total, err)
			}
		}
		diff := (mask ^ prev) & (total - 1)
		for diff != 0 {
			i := bits.TrailingZeros64(diff)
			diff &= diff - 1
			nw.SetEnabled(handles[i], mask&(1<<uint(i)) != 0)
		}
		prev = mask
		if nw.MaxFlow(s, t, dem.D) >= dem.D {
			sum.Add(sum, conf.ProbRat(pFail, mask))
		}
	}
	return sum, nil
}
