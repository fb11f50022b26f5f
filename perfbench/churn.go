package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"flowrel"
	"flowrel/internal/core"
	"flowrel/internal/stats"
)

// churn-stream: seeded chains of single-link mutations through
// Plan.Mutate, one Eval after each, from one goroutine. The chains start
// from churnChains same-shape A3-class bases and are stepped in rotation;
// when they end the timed phase starts them again from their bases. The
// compile layers run as incremental writes (delta compile, with cold
// fallbacks when the cut moves) rather than full builds, and the chains'
// ancestor pinning shows in peak RSS. Delta cost differs up to twofold
// between bases of one shape, so a run averages over 32 of them: with
// eight, p50 and throughput spread 0.09-0.11 (IQR/median) across seeds.
const (
	churnSetupReps = 9
	churnChains    = 32
	churnChainLen  = 400
)

var churnBase = struct {
	p    clusteredParams
	want shape
}{clusteredParams{side: 6, extra: 3, k: 2, d: 2, maxCap: 2}, shape{es: 9, et: 9, k: 2, n: 2}}

// churnStep is one pre-validated chain element: the mutation and the
// reliability its cold twin evaluates to.
type churnStep struct {
	mut  flowrel.Mutation
	want float64
}

func runChurn(e env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	bases := make([][]instance, churnSetupReps)
	for r := range bases {
		for c := 0; c < churnChains; c++ {
			bases[r] = append(bases[r], findShape(rng, churnBase.p, churnBase.want, seen))
		}
	}
	chains := make([][]churnStep, churnChains)
	for c, b := range bases[len(bases)-1] {
		var err error
		if chains[c], err = churnChain(rng, b, churnChainLen); err != nil {
			return nil, err
		}
	}

	// Set-up: compile the chains' bases; earlier repetitions compile
	// same-shape twins, so none of them is a plan-cache hit.
	rep := &report{}
	roots := make([]*flowrel.Plan, churnChains)
	for _, set := range bases {
		t0 := time.Now()
		for c, in := range set {
			var err error
			if roots[c], err = flowrel.CompilePlan(in.g, in.dem, flowrel.Config{}); err != nil {
				return nil, fmt.Errorf("set-up compile: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	got := make([][]float64, churnChains)
	for c := range got {
		got[c] = make([]float64, churnChainLen)
	}
	var rec *recorder
	if e.trace {
		rec = newRecorder(2000)
	}
	deltaTimer := stats.Default.Timer("core.delta_compile_time")

	// Warm-up: chain c enters the timed phase at step off[c], its first
	// steps walked here, so the ancestors the chains pin add up to about
	// the same at every instant. Stepped in lockstep from their bases they
	// rose and fell together, and where the collector ran on that sawtooth
	// moved peak RSS by 0.13 (IQR/median) across seeds.
	off := make([]int, churnChains)
	cur := append([]*flowrel.Plan(nil), roots...)
	for c := range cur {
		off[c] = c * churnChainLen / churnChains
		for j := 0; j < off[c]; j++ {
			child, err := cur[c].Mutate(chains[c][j].mut)
			if err == nil {
				got[c][j], err = child.Eval(nil)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up step %d of chain %d: %w", j, c, err)
			}
			cur[c] = child
		}
	}
	if err := settle(); err != nil {
		return nil, err
	}
	before := readRegistry()
	ph := timedLoop(e.seconds, 0, e.tracePeriod(churnChains*churnChainLen), nil, func(i int, traced bool) int64 {
		c := i % churnChains
		j := (off[c] + i/churnChains) % churnChainLen
		if j == 0 {
			cur[c] = roots[c]
		}
		mut := chains[c][j].mut
		var child *flowrel.Plan
		var r float64
		var err error
		if traced {
			op := rec.begin("op", -1)
			m := rec.begin("flowrel.Plan.Mutate", op)
			d0 := deltaTimer.TotalNanos()
			child, err = cur[c].Mutate(mut)
			end := rec.end(m)
			if d := deltaTimer.TotalNanos() - d0; d > 0 {
				rec.add("core.delta_compile", m, end-d, end)
			}
			if err == nil {
				ev := rec.begin("flowrel.Plan.Eval", op)
				r, err = child.Eval(nil)
				rec.end(ev)
			}
			rec.end(op)
			rec.finish()
		} else {
			child, err = cur[c].Mutate(mut)
			if err == nil {
				r, err = child.Eval(nil)
			}
		}
		if err != nil {
			// The chain cannot continue past a failed step; restart it.
			rep.errors++
			got[c][j] = math.NaN()
			cur[c] = roots[c]
			return 1
		}
		got[c][j] = r
		cur[c] = child
		return 1
	})
	delta := readRegistry().since(before)
	if err := rep.finishPhase(e, ph, rec, delta, "churn-stream", []any{roots, cur, chains}); err != nil {
		return nil, err
	}
	if e.trace {
		n := float64(ph.tracedOps)
		mutNs := float64(rec.totals("flowrel.Plan.Mutate").Total)
		dcNs := float64(rec.totals("core.delta_compile").Total)
		rep.layers["core.delta_compile_us"] = ratio(delta.timerNs("core.delta_compile_time"), float64(ph.ops)) / 1e3
		rep.layers["flowrel.mutate_rest_us"] = ratio(mutNs-dcNs, n) / 1e3
		rep.layers["core.eval_ns_per_scenario"] = ratio(float64(rec.totals("flowrel.Plan.Eval").Total), n)
		rep.layers["core.delta_fallback_ratio"] = ratio(delta.counter("core.delta_fallbacks"), float64(ph.ops))
		rep.layers["core.delta_reuse_ratio"] = ratio(delta.counter("core.delta_reused_checks"), delta.counter("core.realization_checks"))
	}

	rep.wrong = churnWrong(chains, got, off, ph.ops)
	return rep, nil
}

// churnWrong counts the steps, walked in warm-up or among the first ops
// timed steps, whose last answer is not bit-identical to its cold twin's.
// A NaN answer marks a failed step, already counted as an error.
func churnWrong(chains [][]churnStep, got [][]float64, off []int, ops int64) int64 {
	var wrong int64
	for c := range chains {
		for j, st := range chains[c] {
			walked := j < off[c] || int64(c+len(chains)*(j-off[c])) < ops
			if walked && !math.IsNaN(got[c][j]) && math.Float64bits(got[c][j]) != math.Float64bits(st.want) {
				wrong++
			}
		}
	}
	return wrong
}

// churnEvent is one slot of the churn pattern.
type churnEvent int

const (
	flap     churnEvent = iota // capacity flap of a link off the cut
	joinMove                   // a peer link joins across the cut, moving it
	joinKeep                   // a peer link joins and the cut stays
	leave                      // the joined link leaves again
)

// churnBlockLen is the pattern length: 90 flaps and five join/leave
// pairs, two of which move the bottleneck cut so that their joins and
// their leaves fall back to a cold compile. Sorted by latency that is 90%
// flaps, 6% delta-compiled joins and leaves, 2% fallbacks back to the
// base cut and 2% fallbacks to a costlier one, so the median sits inside
// the flaps and the 99th percentile in the middle of the slowest class.
// At most one joined link is live at a time, so the overlay never
// drifts from its base shape.
const churnBlockLen = 100

func churnBlock(rng *rand.Rand) []churnEvent {
	joins := []churnEvent{joinMove, joinMove, joinKeep, joinKeep, joinKeep}
	rng.Shuffle(len(joins), func(i, j int) { joins[i], joins[j] = joins[j], joins[i] })
	pairSlot := rng.Perm(churnBlockLen)[:2*len(joins)]
	sort.Ints(pairSlot)
	block := make([]churnEvent, churnBlockLen)
	for i, slot := range pairSlot {
		if i%2 == 0 {
			block[slot] = joins[i/2]
		} else {
			block[slot] = leave
		}
	}
	return block
}

// churnChain pre-validates n chained mutations of base following the
// churnBlock pattern: each step's mutated graph is compiled cold by
// core.Compile — outside the plan cache, so the reference never shares a
// plan with the delta path — and its evaluation becomes the step's
// expected answer. A draw that does not compile, or does not move or
// keep the cut as its slot requires, is redrawn, so the timed chain
// never fails and has the same mix for every seed.
func churnChain(rng *rand.Rand, base instance, n int) ([]churnStep, error) {
	g := base.g
	twin, err := core.Compile(g, base.dem, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("churn base: %w", err)
	}
	joined := flowrel.EdgeID(-1)
	var steps []churnStep
	for len(steps) < n {
		for _, ev := range churnBlock(rng) {
			ok := false
			for try := 0; try < 5000 && !ok; try++ {
				var mut flowrel.Mutation
				switch ev {
				case flap:
					id := flowrel.EdgeID(rng.Intn(g.NumEdges()))
					if slices.Contains(twin.Cut, id) {
						continue
					}
					c := 1
					if g.Edge(id).Cap == 1 {
						c = 2
					}
					mut = flowrel.Mutation{Kind: flowrel.MutateCapacity, Link: id, Cap: c}
				case joinMove, joinKeep:
					u, v := flowrel.NodeID(rng.Intn(g.NumNodes())), flowrel.NodeID(rng.Intn(g.NumNodes()))
					if u == v {
						continue
					}
					mut = flowrel.Mutation{Kind: flowrel.MutateAdd, U: u, V: v, Cap: 1 + rng.Intn(2), PFail: 0.05 + 0.3*rng.Float64()}
				case leave:
					mut = flowrel.Mutation{Kind: flowrel.MutateRemove, Link: joined}
				}
				g2, _, err := mut.Apply(g)
				if err != nil {
					continue
				}
				if ev == joinMove {
					// The moved cut must cost one or two half-octaves
					// more than the base cut, so the joins' fallbacks form
					// the slowest class, above the leaves' (back to the
					// base cut), with the 99th percentile in its middle;
					// and no side may pass 11 links, so no lopsided split
					// sets the run's latency tail or peak memory.
					bin := costBin(churnBase.want)
					if sh, ok := shapeOf(instance{g2, base.dem}); !ok || costBin(sh) <= bin || costBin(sh) > bin+2 || max(sh.es, sh.et) > 11 {
						continue
					}
				}
				next, err := core.Compile(g2, base.dem, core.Options{})
				if err != nil {
					continue
				}
				if moved := !slices.Equal(twin.Cut, next.Cut); (ev == joinMove) != moved && ev != leave {
					continue
				}
				want, err := next.Eval(nil)
				if err != nil {
					continue
				}
				switch ev {
				case joinMove, joinKeep:
					joined = flowrel.EdgeID(g2.NumEdges() - 1)
				case leave:
					joined = -1
				}
				steps = append(steps, churnStep{mut: mut, want: want})
				g, twin, ok = g2, next, true
			}
			if !ok {
				return nil, fmt.Errorf("churn chain step %d: no valid %d event in 5000 draws", len(steps), ev)
			}
		}
	}
	return steps[:n], nil
}
