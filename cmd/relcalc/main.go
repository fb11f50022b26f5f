// Command relcalc computes the flow reliability of a network described in
// the flowrel text format.
//
// Usage:
//
//	relcalc [flags] [graph-file]
//
// With no file the description is read from standard input. The demand
// comes from the description's "demand" line unless overridden by -s, -t
// and -d.
//
// Examples:
//
//	relcalc network.g
//	relcalc -engine naive network.g
//	relcalc -engine chain -stats network.g
//	relcalc -engine montecarlo -samples 1000000 network.g
//	relcalc -bounds -states 3 -dist network.g
//	relcalc -timeout 2s -max-configs 1000000 network.g
//	relcalc -dot network.g | dot -Tsvg > network.svg
//	gengraph -type clustered | relcalc -engine core
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"flowrel"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relcalc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("relcalc", flag.ContinueOnError)
	var (
		engineFlag  = fs.String("engine", "auto", "engine: auto, core, chain, naive, factoring, exact, montecarlo")
		sFlag       = fs.String("s", "", "override demand source node")
		tFlag       = fs.String("t", "", "override demand sink node")
		dFlag       = fs.Int("d", 0, "override demand bit-rate (number of sub-streams)")
		samplesFlag = fs.Int("samples", 200000, "samples for -engine montecarlo")
		seedFlag    = fs.Int64("seed", 1, "seed for -engine montecarlo")
		boundsFlag  = fs.Bool("bounds", false, "also print guaranteed lower/upper bounds")
		statesFlag  = fs.Int("states", -1, "also print most-probable-states bounds with this failure budget")
		distFlag    = fs.Bool("dist", false, "also print the full deliverable-rate distribution")
		reduceFlag  = fs.Bool("reduce", false, "apply exact reductions before solving")
		dotFlag     = fs.Bool("dot", false, "emit the graph as Graphviz DOT and exit")
		impFlag     = fs.Bool("importance", false, "also print the Birnbaum importance ranking of the links")
		jsonFlag    = fs.Bool("json", false, "emit the result as JSON (exact engines only)")
		cutFlag     = fs.Int("maxcut", 3, "maximum bottleneck size to search (core/chain engines)")
		parFlag     = fs.Int("p", 0, "parallelism (0 = all cores)")
		statsFlag   = fs.Bool("stats", false, "print work statistics")
		timeoutFlag = fs.Duration("timeout", 0, "soft wall-clock budget; an interrupted run prints a certified interval instead of failing")
		cfgsFlag    = fs.Uint64("max-configs", 0, "budget on failure configurations examined (0 = unlimited)")
		serveFlag   = fs.String("serve", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address and keep serving after the computation until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serveFlag != "" {
		ds, err := startDebugServer(*serveFlag)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "relcalc: debug server on http://%s/debug/vars and http://%s/debug/pprof/\n", ds.Addr(), ds.Addr())
		defer func() {
			if retErr == nil {
				serveWait()
			}
			ds.Close()
		}()
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
	g := file.Graph

	var dem flowrel.Demand
	if file.Demand != nil {
		dem = *file.Demand
	}
	if *sFlag != "" {
		id, ok := g.NodeByName(*sFlag)
		if !ok {
			return fmt.Errorf("unknown node %q", *sFlag)
		}
		dem.S = id
	}
	if *tFlag != "" {
		id, ok := g.NodeByName(*tFlag)
		if !ok {
			return fmt.Errorf("unknown node %q", *tFlag)
		}
		dem.T = id
	}
	if *dFlag > 0 {
		dem.D = *dFlag
	}
	if err := dem.Validate(g); err != nil {
		return fmt.Errorf("no usable demand (use a demand line or -s/-t/-d): %w", err)
	}

	if *dotFlag {
		var hl []flowrel.EdgeID
		if bt, err := flowrel.FindBottleneck(g, dem.S, dem.T, *cutFlag); err == nil {
			hl = bt.Cut
		}
		return flowrel.WriteDOT(stdout, g, flowrel.DOTOptions{Demand: &dem, Highlight: hl})
	}

	budget := flowrel.Budget{MaxConfigs: *cfgsFlag, SoftDeadline: *timeoutFlag}
	// The -maxcut default is a search bound, not a promise about the graph:
	// clamp it so tiny (or heavily reduced) graphs don't trip validation.
	maxCut := func(g *flowrel.Graph) int {
		if *cutFlag > g.NumEdges() {
			return g.NumEdges()
		}
		return *cutFlag
	}

	if *jsonFlag {
		rep, err := flowrel.Compute(g, dem, flowrel.Config{
			MaxBottleneck: maxCut(g),
			Parallelism:   *parFlag,
			Budget:        budget,
			CollectStats:  *statsFlag,
		})
		if err != nil {
			return err
		}
		out := map[string]any{
			"nodes":       g.NumNodes(),
			"links":       g.NumEdges(),
			"demand":      map[string]any{"s": int(dem.S), "t": int(dem.T), "d": dem.D},
			"reliability": rep.Reliability,
			"engine":      rep.Engine.String(),
		}
		if *statsFlag {
			out["stats"] = rep.Stats
			out["plan_cache"] = flowrel.PlanCacheSnapshot()
		}
		if rep.Partial {
			out["partial"] = true
			out["lo"] = rep.Lo
			out["hi"] = rep.Hi
			out["rung"] = rep.Rung
			out["reason"] = rep.Reason
		}
		if rep.Engine == flowrel.EngineCore {
			cut := make([]int, len(rep.Cut))
			for i, e := range rep.Cut {
				cut[i] = int(e)
			}
			out["bottleneck"] = map[string]any{"links": cut, "k": rep.K, "alpha": rep.Alpha}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(stdout, "graph: %d nodes, %d links; demand %v\n", g.NumNodes(), g.NumEdges(), dem)
	if *reduceFlag {
		red, err := flowrel.Reduce(g, dem)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "reduced: %d links (clipped %d, removed %d, series %d, parallel %d)\n",
			red.G.NumEdges(), red.Stats.Clipped, red.Stats.Irrelevant,
			red.Stats.SeriesMerges, red.Stats.ParallelMerges)
		g = red.G
		dem = red.Demand
	}
	start := time.Now()

	switch *engineFlag {
	case "montecarlo":
		est, err := flowrel.MonteCarloCtx(context.Background(), g, dem, *samplesFlag, *seedFlag, budget)
		if err != nil {
			return err
		}
		lo, hi := est.ConfidenceInterval(1.96)
		fmt.Fprintf(stdout, "reliability ≈ %.6f  (95%% CI [%.6f, %.6f], %d samples, %v)\n",
			est.Reliability, lo, hi, est.Samples, time.Since(start).Round(time.Millisecond))
		if est.Partial {
			fmt.Fprintf(stdout, "partial: stopped after %d of %d samples (%s)\n", est.Samples, *samplesFlag, est.Reason)
		}
	case "exact":
		ctx := context.Background()
		if *timeoutFlag > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
			defer cancel()
		}
		r, err := flowrel.ExactCtx(ctx, g, dem)
		if err != nil {
			return err
		}
		f, _ := r.Float64()
		fmt.Fprintf(stdout, "reliability = %.12f  (exact rational %s, %v)\n", f, r.RatString(), time.Since(start).Round(time.Millisecond))
	default:
		var eng flowrel.Engine
		switch *engineFlag {
		case "auto":
			eng = flowrel.EngineAuto
		case "core":
			eng = flowrel.EngineCore
		case "naive":
			eng = flowrel.EngineNaive
		case "factoring":
			eng = flowrel.EngineFactoring
		case "chain":
			eng = flowrel.EngineChain
		default:
			return fmt.Errorf("unknown engine %q", *engineFlag)
		}
		rep, err := flowrel.Compute(g, dem, flowrel.Config{
			Engine:        eng,
			MaxBottleneck: maxCut(g),
			Parallelism:   *parFlag,
			Budget:        budget,
			CollectStats:  *statsFlag,
		})
		if err != nil {
			return err
		}
		if rep.Partial {
			rung := rep.Rung
			if rung == "" {
				rung = rep.Engine.String()
			}
			fmt.Fprintf(stdout, "reliability ∈ [%.6f, %.6f]  (certified; point estimate %.6f, rung %s, %v)\n",
				rep.Lo, rep.Hi, rep.Reliability, rung, time.Since(start).Round(time.Millisecond))
			fmt.Fprintf(stdout, "partial: %s\n", rep.Reason)
		} else {
			fmt.Fprintf(stdout, "reliability = %.12f  (engine %v, %v)\n", rep.Reliability, rep.Engine, time.Since(start).Round(time.Millisecond))
		}
		if rep.Engine == flowrel.EngineCore {
			fmt.Fprintf(stdout, "bottleneck: links %v, k=%d, alpha=%.3f, |D|=%d\n", rep.Cut, rep.K, rep.Alpha, len(rep.Assignments))
		}
		if *statsFlag {
			fmt.Fprintf(stdout, "stats: %d max-flow calls, %d configurations\n", rep.MaxFlowCalls, rep.Configs)
			if st := rep.Stats; st != nil {
				fmt.Fprintf(stdout, "stats: %v total, %d augmenting paths, plan cache hit %v\n",
					time.Duration(st.TotalNanos).Round(time.Microsecond), st.AugmentingPaths, st.PlanCacheHit)
				if rep.Engine == flowrel.EngineCore {
					fmt.Fprintf(stdout, "stats: pairs pruned %d by capacity, %d by closure, %d off-path; on-path links %d (G_s), %d (G_t)\n",
						st.PrunedCapacity, st.PrunedClosure, st.PrunedOffPath, st.OnPathLinks[0], st.OnPathLinks[1])
				}
				for _, p := range st.Phases {
					fmt.Fprintf(stdout, "  phase %s/%s: %v, %d max-flow calls\n",
						p.Engine, p.Phase, time.Duration(p.DurationNanos).Round(time.Microsecond), p.MaxFlowCalls)
				}
				for _, r := range st.Rungs {
					fmt.Fprintf(stdout, "  rung %s: %s (%v)\n", r.Rung, r.Outcome, time.Duration(r.DurationNanos).Round(time.Microsecond))
				}
			}
			pc := flowrel.PlanCacheSnapshot()
			fmt.Fprintf(stdout, "stats: plan cache %d hits, %d misses, %d evictions, %d deduped compiles, %d entries\n",
				pc.Hits, pc.Misses, pc.Evictions, pc.CompileDedup, pc.Entries)
		}
	}

	if *boundsFlag {
		bd, err := flowrel.Bounds(g, dem, *cutFlag)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bounds: [%.6f, %.6f]  (%d disjoint delivery subgraphs, %d cuts)\n",
			bd.Lower, bd.Upper, bd.DisjointSubgraphs, bd.CutsExamined)
	}
	if *statesFlag >= 0 {
		bd, err := flowrel.MostProbableStates(g, dem, *statesFlag)
		if err != nil {
			return err
		}
		_, tail := flowrel.FailureLayerMass(g, *statesFlag)
		fmt.Fprintf(stdout, "states(≤%d failures): [%.6f, %.6f]  (unexamined mass %.3g)\n",
			*statesFlag, bd.Lower, bd.Upper, tail)
	}
	if *impFlag {
		imps, err := flowrel.BirnbaumImportance(g, dem)
		if err != nil {
			return err
		}
		sort.Slice(imps, func(i, j int) bool { return imps[i].Birnbaum > imps[j].Birnbaum })
		fmt.Fprintln(stdout, "link importance (harden the top ones first):")
		for i, imp := range imps {
			if i >= 10 {
				fmt.Fprintf(stdout, "  … %d more\n", len(imps)-10)
				break
			}
			e := g.Edge(imp.Link)
			fmt.Fprintf(stdout, "  link %d (%d→%d): Birnbaum %.6f, perfect link buys %+.6f\n",
				imp.Link, e.U, e.V, imp.Birnbaum, imp.Improvement)
		}
	}
	if *distFlag {
		ds, err := flowrel.FlowDistributionFactored(g, dem)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "deliverable-rate distribution:")
		for v, p := range ds.P {
			fmt.Fprintf(stdout, "  P(rate = %d) = %.6f\n", v, p)
		}
		fmt.Fprintf(stdout, "  E[rate] = %.4f of %d (%.1f%%)\n", ds.Mean(), ds.D, 100*ds.MeanFraction())
	}
	return nil
}
