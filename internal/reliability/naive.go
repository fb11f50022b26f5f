package reliability

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

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
	errs := make([]error, len(chunks))

	var wg sync.WaitGroup
	sem := make(chan struct{}, opt.workers())
	for ci, r := range chunks {
		wg.Add(1)
		go func(ci int, lo, hi uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cur := lo
			defer anytime.RecoverInto(&errs[ci], opt.Ctl, "naive enumeration worker", &cur)
			nw := proto.Clone()
			partial[ci], examined[ci], stats[ci] = naiveBinaryChunk(nw, handles, table, s, t, dem.D, lo, hi, &opt, &cur)
		}(ci, r[0], r[1])
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return Result{}, err
	}

	res := Result{}
	exam := 0.0
	for ci := range chunks {
		res.Reliability += partial[ci]
		exam += examined[ci]
		res.Stats.add(stats[ci])
	}
	res.seal(opt.Ctl, res.Reliability, exam-res.Reliability)
	return res, nil
}

// naiveBinaryChunk walks masks [lo, hi) in binary order, re-solving from
// scratch per configuration (only the edges whose state differs from the
// previous mask are toggled, but the flow restarts at zero). It returns
// the admitting and total probability mass of the configurations it
// actually examined before the controller stopped it.
func naiveBinaryChunk(nw *maxflow.Network, handles []maxflow.Handle, table *conf.Table, s, t int32, d int, lo, hi uint64, opt *Options, cur *uint64) (float64, float64, Stats) {
	var st Stats
	sum, exam := 0.0, 0.0
	prev := ^uint64(0) // all enabled, the state FromGraph builds
	var sinceCheck uint64
	var callsMark int64
	for mask := lo; mask < hi; mask++ {
		if sinceCheck >= anytime.CheckEvery {
			if !opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark) {
				break
			}
			sinceCheck, callsMark = 0, nw.Stats.MaxFlowCalls
		}
		*cur = mask
		if opt.TestHook != nil {
			opt.TestHook(mask)
		}
		diff := (mask ^ prev) & (1<<uint(len(handles)) - 1)
		for diff != 0 {
			i := trailingZeros(diff)
			diff &= diff - 1
			nw.SetEnabled(handles[i], mask&(1<<uint(i)) != 0)
		}
		prev = mask
		st.Configs++
		sinceCheck++
		p := table.Prob(mask)
		exam += p
		if nw.MaxFlow(s, t, d) >= d {
			st.Admitting++
			sum += p
		}
	}
	opt.Ctl.Charge(sinceCheck, nw.Stats.MaxFlowCalls-callsMark)
	st.MaxFlowCalls = nw.Stats.MaxFlowCalls
	st.AugmentUnits = nw.Stats.AugmentUnits
	return sum, exam, st
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

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
			i := trailingZeros(diff)
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
