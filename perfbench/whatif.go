package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"flowrel"
	"flowrel/internal/core"
)

// whatif-eval: a seeded stream of what-if queries against two plans
// compiled in set-up, from one goroutine. Only the evaluate kernel works:
// single scenarios go through Plan.Eval (one-lane kernel), batches
// through Plan.EvalBatchInto (eight-lane kernel over GOMAXPROCS workers).
// Plan 0's eight-lane scratch, 64·(2^12 + 2^13 + 2·2^2 + 2·2) B ≈ 0.75 MiB,
// fits the 2 MiB per-core L2; plan 1's, 64·(2^15 + 2^15 + 8 + 4) B ≈
// 4.0 MiB, does not.
const (
	whatIfSetupReps = 9
	whatIfQueryPool = 2000 // distinct queries, 20 blocks of whatIfMix; the timed phase cycles them
)

var whatIfPlans = []struct {
	p    clusteredParams
	want shape
}{
	{clusteredParams{side: 9, extra: 3, k: 2, d: 2, maxCap: 2}, shape{es: 12, et: 13, k: 2, n: 2}},
	{clusteredParams{side: 12, extra: 3, k: 2, d: 2, maxCap: 2}, shape{es: 15, et: 15, k: 2, n: 2}},
}

func runWhatIf(e env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	// Each set-up repetition compiles its own same-shape plans, so none
	// of them is a plan-cache hit; the last repetition's plans are queried.
	insts := make([][]instance, whatIfSetupReps)
	for r := range insts {
		for _, wp := range whatIfPlans {
			insts[r] = append(insts[r], findShape(rng, wp.p, wp.want, seen))
		}
	}
	queried := insts[len(insts)-1]
	bases := make([][]float64, len(queried))
	for i, in := range queried {
		bases[i] = pfailOf(in.g)
	}
	qs := whatIfQueries(rng, whatIfQueryPool, bases)

	rep := &report{}
	var plans []*flowrel.Plan
	for _, ins := range insts {
		t0 := time.Now()
		plans = plans[:0]
		for _, in := range ins {
			p, err := flowrel.CompilePlan(in.g, in.dem, flowrel.Config{})
			if err != nil {
				return nil, fmt.Errorf("set-up compile: %w", err)
			}
			plans = append(plans, p)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	out := make([][]float64, len(qs))
	for i, q := range qs {
		out[i] = make([]float64, len(q.scenarios))
	}
	var rec *recorder
	if e.trace {
		rec = newRecorder(2000)
	}
	var scenarios, batchScenarios, tracedScenarios int64
	perPlan := make([]int64, len(plans))
	if err := settle(); err != nil {
		return nil, err
	}
	before := readRegistry()
	ph := timedLoop(e.seconds, 0, e.tracePeriod(len(qs)), nil, func(i int, traced bool) int64 {
		q := &qs[i%len(qs)]
		dst := out[i%len(qs)]
		p := plans[q.plan]
		single := len(q.scenarios) == 1
		var root, call int32
		if traced {
			root = rec.begin("op", -1)
			if single {
				call = rec.begin("flowrel.Plan.Eval", root)
			} else {
				call = rec.begin("flowrel.Plan.EvalBatchInto", root)
			}
		}
		var err error
		if single {
			dst[0], err = p.Eval(q.scenarios[0])
		} else {
			err = p.EvalBatchInto(dst, q.scenarios, flowrel.EvalBatchOptions{})
		}
		n := int64(len(q.scenarios))
		if traced {
			rec.end(call)
			rec.end(root)
			rec.finish()
			tracedScenarios += n
		}
		if err != nil {
			rep.errors++
			return 0
		}
		scenarios += n
		perPlan[q.plan] += n
		if !single {
			batchScenarios += n
		}
		return n
	})
	delta := readRegistry().since(before)
	if err := rep.finishPhase(e, ph, rec, delta, "whatif-eval", []any{plans, qs, out}); err != nil {
		return nil, err
	}

	// Reference plans, compiled independently of the plan cache.
	refs := make([]*core.Plan, len(queried))
	for i, in := range queried {
		cp, err := core.Compile(in.g, in.dem, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference compile: %w", err)
		}
		refs[i] = cp
	}
	if e.trace {
		evalNs := rec.totals("flowrel.Plan.Eval").Total + rec.totals("flowrel.Plan.EvalBatchInto").Total
		rep.layers["core.eval_ns_per_scenario"] = ratio(float64(evalNs), float64(tracedScenarios))
		rep.layers["core.eval_lane_fill"] = ratio(float64(batchScenarios), delta.counter("core.kernel_lanes"))
		rep.layers["core.segment_sums_per_scenario"] = ratio(delta.counter("core.eval_segment_sums"), float64(batchScenarios))
		var bytes float64
		for i, cp := range refs {
			bytes += float64(perPlan[i]) * evalBytesPerScenario(cp)
		}
		rep.layers["core.eval_bytes_per_scenario"] = ratio(bytes, float64(scenarios))
	}

	// Checks: every answer of the last pass over each query bit-identical
	// to the scalar evaluator on the reference plan.
	for i := 0; i < len(qs) && int64(i) < ph.ops; i++ {
		for j, v := range qs[i].scenarios {
			want, err := refs[qs[i].plan].EvalScalar(v)
			if err != nil {
				return nil, fmt.Errorf("reference eval: %w", err)
			}
			if math.Float64bits(out[i][j]) != math.Float64bits(want) {
				rep.wrong++
			}
		}
	}
	return rep, nil
}

// evalBytesPerScenario models the bytes the eight-lane zeta kernel
// touches per scenario on plan p: the lane's share of the scratch (both
// sides' configuration probabilities, the two 2^|𝒟| lattices and the cut
// probabilities, 8 B each) plus an eighth of the tables a block streams
// (the 4 B configuration permutation, 8 B per segment, 12 B per term).
func evalBytesPerScenario(p *core.Plan) float64 {
	configs := math.Exp2(float64(p.SideEdges[0])) + math.Exp2(float64(p.SideEdges[1]))
	scratch := 8 * (configs + 2*math.Exp2(float64(len(p.Assignments))) + 2*float64(len(p.Cut)))
	tables := 4*configs + 8*float64(p.Stats.KernelSegments) + 12*float64(p.Stats.KernelTerms)
	return scratch + tables/8
}

// pfailOf collects g's failure probabilities by link ID.
func pfailOf(g *flowrel.Graph) []float64 {
	p := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		p[i] = e.PFail
	}
	return p
}
