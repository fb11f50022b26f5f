package reliability_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/chain"
	"flowrel/internal/dist"
	"flowrel/internal/graph"
	"flowrel/internal/multicast"
	"flowrel/internal/poly"
	"flowrel/internal/reliability"
	"flowrel/internal/sim"
)

// The engines below share one worker pool (anytime.Run), one
// configuration walk (anytime.Walk) and one sample loop
// (anytime.Sample). These tests hold every engine on them to the same
// budget contract, through the engines' own entry points.

// bundle builds s → t over links parallel links of capacity 1 and demand
// 2: the cheapest max flow per configuration, so the tests measure the
// accounting, not the solver.
func bundle(links int) (*graph.Graph, graph.Demand) {
	b := graph.NewBuilder()
	s, t := b.AddNode(), b.AddNode()
	for i := 0; i < links; i++ {
		b.AddEdge(s, t, 1, 0.3)
	}
	return b.MustBuild(), graph.Demand{S: s, T: t, D: 2}
}

// engine runs one engine on g with opt and returns its error. Every
// engine here makes exactly one max-flow call per configuration or
// sample, so a run's examined work is one count.
type engine struct {
	name string
	run  func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error
}

func enumerators() []engine {
	return []engine{
		{"naive", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := reliability.Naive(g, dem, opt)
			return err
		}},
		{"dist.Exact", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := dist.Exact(g, dem, opt)
			return err
		}},
		{"poly.Compute", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			// An interrupted polynomial is an error by contract.
			if _, err := poly.Compute(g, dem, opt); err != nil && !errors.Is(err, anytime.ErrInterrupted) {
				return err
			}
			return nil
		}},
		{"multicast.Naive", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := multicast.Naive(g, dem.S, []graph.NodeID{dem.T}, dem.D, opt)
			return err
		}},
	}
}

// samplers run 5,000 samples: one full 4,096-sample block (1,024 in
// multicast) and a short last one.
func samplers() []engine {
	const n = 5000
	return []engine{
		{"MonteCarlo", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := reliability.MonteCarlo(g, dem, n, 1, opt)
			return err
		}},
		{"UnreliabilityIS", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := reliability.UnreliabilityIS(g, dem, n, 1, 0.4, opt)
			return err
		}},
		{"dist.Sampled", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := dist.Sampled(g, dem, n, 1, opt)
			return err
		}},
		{"multicast.MonteCarloRand", func(g *graph.Graph, dem graph.Demand, opt reliability.Options) error {
			_, err := multicast.MonteCarloRand(g, dem.S, []graph.NodeID{dem.T}, dem.D, n, rand.New(rand.NewSource(1)), opt)
			return err
		}},
	}
}

// counted runs e under ctl with a TestHook that counts the
// configurations examined.
func counted(t *testing.T, e engine, g *graph.Graph, dem graph.Demand, ctl *anytime.Ctl, workers int) uint64 {
	t.Helper()
	var hooks atomic.Uint64
	opt := reliability.Options{Ctl: ctl, Parallelism: workers, TestHook: func(uint64) { hooks.Add(1) }}
	if err := e.run(g, dem, opt); err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	return hooks.Load()
}

// TestEnumerationBudgetBound: a configuration budget stops every
// enumeration engine within one CheckEvery batch per worker, at any
// budget: examined ≤ MaxConfigs + workers·CheckEvery.
func TestEnumerationBudgetBound(t *testing.T) {
	g, dem := bundle(19) // 64 chunks of 8,192 configurations
	space := uint64(1) << 19
	for _, e := range enumerators() {
		for _, c := range []struct {
			workers int
			budget  uint64
		}{{1, 5000}, {2, 1}} {
			ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: c.budget})
			examined := counted(t, e, g, dem, ctl, c.workers)
			if bound := c.budget + uint64(c.workers)*anytime.CheckEvery; examined > bound {
				t.Errorf("%s, %d workers, MaxConfigs %d: examined %d of %d configurations, bound %d",
					e.name, c.workers, c.budget, examined, space, bound)
			}
			if !ctl.Stopped() {
				t.Errorf("%s, %d workers, MaxConfigs %d: budget never stopped the run", e.name, c.workers, c.budget)
			}
		}
	}
}

// TestEngineChargesMatchWork: every configuration or sample an engine
// examines, and every max-flow call it makes, is charged to the Ctl
// exactly once — on complete runs and on runs a budget interrupts.
func TestEngineChargesMatchWork(t *testing.T) {
	check := func(name string, ctl *anytime.Ctl, examined uint64) {
		t.Helper()
		if ctl.Configs() != examined {
			t.Errorf("%s: charged %d configurations, examined %d", name, ctl.Configs(), examined)
		}
		if ctl.MaxFlowCalls() != int64(examined) {
			t.Errorf("%s: charged %d max-flow calls, made %d", name, ctl.MaxFlowCalls(), examined)
		}
	}
	small, sdem := bundle(10)
	wide, wdem := bundle(19)
	for _, e := range append(enumerators(), samplers()...) {
		for _, workers := range []int{1, 2} {
			ctl := anytime.New(context.Background(), anytime.Budget{})
			check(e.name+" complete", ctl, counted(t, e, small, sdem, ctl, workers))

			// 4,000 stops the first enumeration chunk of the wide
			// bundle at its first mid-chunk check, and a sampler
			// inside its first block.
			ctl = anytime.New(context.Background(), anytime.Budget{MaxConfigs: 4000})
			examined := counted(t, e, wide, wdem, ctl, workers)
			if !ctl.Stopped() {
				t.Errorf("%s: budget never stopped the run", e.name)
			}
			check(e.name+" interrupted", ctl, examined)
		}
	}

	// sim has no hook; its report counts the sessions it simulated.
	for _, budget := range []uint64{0, 700} {
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: budget})
		rep, err := sim.Run(small, sdem, sim.Config{Sessions: 1500, Seed: 1, Parallelism: 2, Ctl: ctl})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Partial != (budget > 0) {
			t.Errorf("sim.Run, MaxConfigs %d: Partial = %v", budget, rep.Partial)
		}
		check("sim.Run", ctl, uint64(rep.Sessions))
	}
}

// TestEnginePanicRecovery injects a panicking hook into every engine on
// the shared pool, and into chain's end and middle segments: each must
// return a *PanicError naming the configuration, and the process must
// survive. Chain's error also names the segment the hook fired in.
func TestEnginePanicRecovery(t *testing.T) {
	g, dem := bundle(10)
	cg, cdem, cuts := chainBundles()
	rows := append(enumerators(), samplers()...)
	rows = append(rows, engine{"chain.Solve", func(_ *graph.Graph, _ graph.Demand, opt reliability.Options) error {
		_, err := chain.Solve(cg, cdem, cuts, chain.Options{TestHook: opt.TestHook})
		return err
	}})
	segment := map[uint64]string{5: "segment/0", 100: "segment/1"}
	for _, e := range rows {
		for _, at := range []uint64{5, 100} {
			hook := func(cfg uint64) {
				if cfg == at {
					panic("injected fault")
				}
			}
			err := e.run(g, dem, reliability.Options{Parallelism: 2, TestHook: hook})
			var pe *anytime.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err = %v, want a PanicError", e.name, err)
			}
			if pe.Config != at {
				t.Fatalf("%s: failing configuration %d, want %d", e.name, pe.Config, at)
			}
			if e.name == "chain.Solve" && !strings.Contains(err.Error(), segment[at]) {
				t.Fatalf("%s: err = %v, want it to name %s", e.name, err, segment[at])
			}
		}
	}
}

// chainBundles is a three-segment chain s ⇉ a → b ⇉ c → e ⇉ t of
// link bundles: 3 links in the end segments and 7 in the middle one, all
// three built by core's word walk. A hook at configuration 5 fires first
// in the source segment, one at 100 only in the middle segment.
func chainBundles() (*graph.Graph, graph.Demand, [][]graph.EdgeID) {
	b := graph.NewBuilder()
	n := make([]graph.NodeID, 6)
	for i := range n {
		n[i] = b.AddNode()
	}
	var cuts [][]graph.EdgeID
	for i, links := range []int{3, 7, 3} {
		if i > 0 {
			cuts = append(cuts, []graph.EdgeID{b.AddEdge(n[2*i-1], n[2*i], 2, 0.1)})
		}
		for j := 0; j < links; j++ {
			b.AddEdge(n[2*i], n[2*i+1], 1, 0.2)
		}
	}
	return b.MustBuild(), graph.Demand{S: n[0], T: n[5], D: 2}, cuts
}
