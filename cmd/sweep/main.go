// Command sweep prints reliability curves as CSV, ready for gnuplot or a
// spreadsheet — the tool behind "how does reliability degrade as links get
// worse", the curve form of the paper's evaluation.
//
// Three sweep modes:
//
//	-mode uniform      R(p) with every link failing at probability p
//	                   (one enumeration via the reliability polynomial,
//	                   then free evaluations)
//	-mode scale        every link's own probability multiplied by the
//	                   sweep value (one compiled plan, one probability
//	                   evaluation per point — no per-point solves)
//	-mode bottleneck   only the discovered bottleneck links' probability
//	                   set to the sweep value (same compile-once plan)
//
// The scale and bottleneck curves vary only probabilities, never the
// topology, so the bottleneck decomposition is compiled once and each
// point is a microsecond evaluation. When the instance does not admit the
// decomposition (or the budget interrupts the compile), the sweep falls
// back to one anytime solve per point, printing certified intervals as
// comments for points the budget cuts short.
//
// Usage:
//
//	gengraph -type clustered | sweep -mode uniform -from 0 -to 0.5 -steps 20
//	sweep -mode bottleneck network.g > curve.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"flowrel"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		modeFlag  = fs.String("mode", "uniform", "uniform, scale, or bottleneck")
		fromFlag  = fs.Float64("from", 0, "sweep start")
		toFlag    = fs.Float64("to", 0.5, "sweep end")
		stepsFlag = fs.Int("steps", 20, "number of points (≥ 2)")
		cutFlag   = fs.Int("maxcut", 3, "bottleneck search budget")
		timeFlag  = fs.Duration("timeout", 0, "soft wall-clock budget for the whole sweep; points past it print certified intervals as comments")
		cfgsFlag  = fs.Uint64("max-configs", 0, "per-point configuration budget (0 = unlimited; scale/bottleneck modes)")
		parFlag   = fs.Int("parallelism", 0, "evaluation workers for the compile-once sweep modes (0 = GOMAXPROCS; results are identical either way)")
		statsFlag = fs.Bool("stats", false, "print a JSON work summary (metric deltas + plan cache) to standard error after the sweep; the CSV on standard output is unchanged")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stepsFlag < 2 {
		return fmt.Errorf("steps %d must be ≥ 2", *stepsFlag)
	}
	if *fromFlag < 0 || *fromFlag > *toFlag {
		return fmt.Errorf("sweep range [%g, %g] must satisfy 0 ≤ from ≤ to", *fromFlag, *toFlag)
	}
	// uniform and bottleneck sweep a probability; scale sweeps a factor.
	if *modeFlag != "scale" && *toFlag >= 1 {
		return fmt.Errorf("mode %s sweeps a probability; to = %g must be < 1", *modeFlag, *toFlag)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	file, err := flowrel.ParseText(in)
	if err != nil {
		return err
	}
	if file.Demand == nil {
		return fmt.Errorf("the description needs a demand line")
	}
	g, dem := file.Graph, *file.Demand

	points := make([]float64, *stepsFlag)
	for i := range points {
		points[i] = *fromFlag + (*toFlag-*fromFlag)*float64(i)/float64(*stepsFlag-1)
	}

	ctx := context.Background()
	if *timeFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeFlag)
		defer cancel()
	}
	budget := flowrel.Budget{MaxConfigs: *cfgsFlag}

	var before flowrel.StatsReport
	if *statsFlag {
		before = flowrel.StatsSnapshot()
	}

	sweep := func() error {
		switch *modeFlag {
		case "uniform":
			var P flowrel.ReliabilityPolynomial
			var err error
			if *timeFlag > 0 || *cfgsFlag > 0 {
				P, err = flowrel.PolynomialCtx(ctx, g, dem, budget)
			} else {
				P, err = flowrel.Polynomial(g, dem)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "p,reliability")
			for _, p := range points {
				fmt.Fprintf(stdout, "%.6f,%.9f\n", p, P.Eval(p))
			}
		case "scale":
			scenario := func(base []float64, sc float64) []float64 {
				pf := make([]float64, len(base))
				for i, p := range base {
					p *= sc
					if p >= 1 {
						p = 0.999999
					}
					pf[i] = p
				}
				return pf
			}
			if done, err := planSweep(ctx, stdout, g, dem, flowrel.Config{Budget: budget, Parallelism: *parFlag}, "scale,reliability", "", points, scenario); done || err != nil {
				return err
			}
			// Fallback: one anytime solve per point on a reweighted copy.
			fmt.Fprintln(stdout, "scale,reliability")
			for _, sc := range points {
				sg, err := rebuild(g, func(e flowrel.Edge) float64 {
					p := e.PFail * sc
					if p >= 1 {
						p = 0.999999
					}
					return p
				})
				if err != nil {
					return err
				}
				if err := solvePoint(ctx, stdout, sg, dem, budget, sc); err != nil {
					return err
				}
			}
		case "bottleneck":
			bt, err := flowrel.FindBottleneck(g, dem.S, dem.T, *cutFlag)
			if err != nil {
				return err
			}
			cutNote := fmt.Sprintf("# bottleneck links: %v", bt.Cut)
			scenario := func(base []float64, p float64) []float64 {
				pf := append([]float64(nil), base...)
				for _, e := range bt.Cut {
					pf[e] = p
				}
				return pf
			}
			cfg := flowrel.Config{Bottleneck: bt.Cut, MaxBottleneck: *cutFlag, Budget: budget, Parallelism: *parFlag}
			if done, err := planSweepCfg(ctx, stdout, g, dem, cfg, "p_bottleneck,reliability", cutNote, points, scenario); done || err != nil {
				return err
			}
			// Fallback: one anytime solve per point on a reweighted copy.
			inCut := map[flowrel.EdgeID]bool{}
			for _, e := range bt.Cut {
				inCut[e] = true
			}
			fmt.Fprintln(stdout, cutNote)
			fmt.Fprintln(stdout, "p_bottleneck,reliability")
			for _, p := range points {
				sg, err := rebuild(g, func(e flowrel.Edge) float64 {
					if inCut[e.ID] {
						return p
					}
					return e.PFail
				})
				if err != nil {
					return err
				}
				if err := solvePoint(ctx, stdout, sg, dem, budget, p); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown mode %q", *modeFlag)
		}
		return nil
	}
	if err := sweep(); err != nil {
		return err
	}

	// The work summary rides on stderr so the CSV stays machine-readable:
	// per-layer metric deltas scoped to this sweep plus the plan-cache
	// counters (one compile + N free evaluations shows up directly here).
	if *statsFlag {
		delta := flowrel.StatsSnapshot().Delta(before)
		summary := map[string]any{
			"registry":   delta,
			"plan_cache": flowrel.PlanCacheSnapshot(),
			// The frontier engine's pruning counters, pulled out of the
			// registry delta so a sweep's avoided work is visible without
			// grepping the full counter map.
			"pruning": map[string]int64{
				"pruned_capacity":         delta.Counters["core.pruned_capacity"],
				"pruned_closure":          delta.Counters["core.pruned_closure"],
				"pruned_off_path":         delta.Counters["core.pruned_off_path"],
				"frontier_max_flow_calls": delta.Counters["core.frontier_max_flow_calls"],
			},
		}
		enc := json.NewEncoder(stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			return err
		}
	}
	return nil
}

// planSweep compiles the instance once and evaluates every sweep point
// against the plan — no per-point max-flow work. It reports done = false
// (printing nothing) when the instance does not compile, so the caller can
// fall back to per-point solves.
func planSweep(ctx context.Context, stdout io.Writer, g *flowrel.Graph, dem flowrel.Demand, cfg flowrel.Config, header, note string, points []float64, scenario func(base []float64, x float64) []float64) (bool, error) {
	return planSweepCfg(ctx, stdout, g, dem, cfg, header, note, points, scenario)
}

func planSweepCfg(ctx context.Context, stdout io.Writer, g *flowrel.Graph, dem flowrel.Demand, cfg flowrel.Config, header, note string, points []float64, scenario func(base []float64, x float64) []float64) (bool, error) {
	plan, err := flowrel.CompilePlanCtx(ctx, g, dem, cfg)
	if err != nil {
		// Structural decline or interrupted compile: let the per-point
		// anytime path answer (it degrades gracefully and prints certified
		// intervals when the budget cuts a point short).
		return false, nil
	}
	base := plan.BasePFail()
	scenarios := make([][]float64, len(points))
	for i, x := range points {
		scenarios[i] = scenario(base, x)
	}
	rs, err := plan.EvalBatch(scenarios)
	if err != nil {
		return false, err
	}
	if note != "" {
		fmt.Fprintln(stdout, note)
	}
	fmt.Fprintln(stdout, header)
	for i, x := range points {
		fmt.Fprintf(stdout, "%.6f,%.9f\n", x, rs[i])
	}
	return true, nil
}

// solvePoint computes one sweep point under the shared deadline and the
// per-point budget; a partial answer yields the certified midpoint plus a
// comment row with the interval.
func solvePoint(ctx context.Context, stdout io.Writer, sg *flowrel.Graph, dem flowrel.Demand, budget flowrel.Budget, x float64) error {
	rep, err := flowrel.ComputeCtx(ctx, sg, dem, flowrel.Config{Budget: budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%.6f,%.9f\n", x, rep.Reliability)
	if rep.Partial {
		fmt.Fprintf(stdout, "# partial at %.6f: certified [%.9f, %.9f], rung %s\n", x, rep.Lo, rep.Hi, rep.Rung)
	}
	return nil
}

// rebuild copies g with each link's failure probability mapped through f.
func rebuild(g *flowrel.Graph, f func(flowrel.Edge) float64) (*flowrel.Graph, error) {
	b := flowrel.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNamedNode(g.NodeName(flowrel.NodeID(i)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, f(e))
	}
	return b.Build()
}
