package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
)

// sideEngineCase names one side engine under test.
type sideEngineCase struct {
	name string
	side SideEngine
}

// compileEngines is the cross-checked engine set: the frontier walk must
// be indistinguishable from the dense engines in everything but cost.
var compileEngines = []sideEngineCase{
	{"frontier", SideFrontier},
	{"binary", SideBinary},
	{"graycode", SideGrayCode},
}

// TestFrontierEquivalenceCorpus is the frontier engine's contract on the
// 50-graph planted-bottleneck corpus: SideFrontier, SideBinary and
// SideGrayCode must produce bit-identical realization arrays for both
// sides, and charge the anytime budget the identical number of
// configurations — pruning changes what is *paid*, never what is
// *counted* (see checkFrontierEquivalent).
func TestFrontierEquivalenceCorpus(t *testing.T) {
	const wantGraphs = 50
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(4), k, d)
		if g.NumEdges() > 14 {
			continue
		}
		if checkFrontierEquivalent(t, seed, g, dem, cut, compileEngines, 0, 14) {
			count++
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// TestFrontierEquivalenceLargeSides extends the corpus to sides of 10–16
// links, the sizes cold compiles see, where certificates decide most
// pairs and a walk visits thousands of masks per side; the reference is
// the binary walk.
func TestFrontierEquivalenceLargeSides(t *testing.T) {
	const wantGraphs = 20
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 5+rng.Intn(3), 10+rng.Intn(7), k, d)
		if checkFrontierEquivalent(t, seed, g, dem, cut, compileEngines[:2], 10, 16) {
			count++
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// checkFrontierEquivalent compiles one instance with each engine
// (compileEngines order, frontier first) and fails the test unless every
// engine built bit-identical realization arrays, charged the identical
// configuration count, and — against the binary walk — made the identical
// number of (assignment, configuration) decisions. The frontier compile
// is additionally audited: its pruned pairs cannot exceed the pairs it
// checked, and the dense engines report no frontier counters. It reports
// false, checking nothing, when the instance is unusable or trivial (its
// cut cannot carry the demand) or a side falls outside [minSide, maxSide]
// links.
func checkFrontierEquivalent(t *testing.T, seed int64, g *graph.Graph, dem graph.Demand, cut []graph.EdgeID, engines []sideEngineCase, minSide, maxSide int) bool {
	t.Helper()
	type outcome struct {
		plan    *Plan
		charged uint64
	}
	var results []outcome
	bt := cut
	for _, eng := range engines {
		compile := func() (*Plan, uint64, error) {
			ctl := anytime.New(context.Background(), anytime.Budget{})
			plan, err := Compile(g, dem, Options{Bottleneck: bt, MaxAssignmentSet: 62, Side: eng.side, Ctl: ctl})
			return plan, ctl.Configs(), err
		}
		plan, charged, err := compile()
		if err != nil && bt != nil {
			// The planted cut can fail minimality; fall back to
			// discovery so every engine sees the same decomposition.
			bt = nil
			plan, charged, err = compile()
		}
		if err != nil {
			// An unusable instance fails every engine alike; one the
			// binary walk compiles is the failing engine's fault.
			if _, errB := Compile(g, dem, Options{Bottleneck: bt, MaxAssignmentSet: 62, Side: SideBinary}); errB == nil {
				t.Fatalf("seed %d: %s failed where the binary walk compiles: %v", seed, eng.name, err)
			}
			return false
		}
		if len(plan.Assignments) == 0 {
			return false
		}
		for _, m := range plan.SideEdges {
			if m < minSide || m > maxSide {
				return false
			}
		}
		results = append(results, outcome{plan, charged})
	}
	ref := results[0]
	for i, res := range results[1:] {
		name := engines[i+1].name
		for side := 0; side < 2; side++ {
			a, b := ref.plan.realized[side], res.plan.realized[side]
			if len(a) != len(b) {
				t.Fatalf("seed %d: %s side %d has %d configs, frontier %d", seed, name, side, len(b), len(a))
			}
			for m := range a {
				if a[m] != b[m] {
					t.Fatalf("seed %d: side %d mask %#x: frontier realized %#x, %s %#x",
						seed, side, m, a[m], name, b[m])
				}
			}
		}
		if ref.charged != res.charged {
			t.Fatalf("seed %d: frontier charged %d configs, %s charged %d — budgets diverge",
				seed, ref.charged, name, res.charged)
		}
	}
	fst := ref.plan.Stats
	dense := results[1].plan.Stats
	if fst.RealizationChecks != dense.RealizationChecks {
		t.Fatalf("seed %d: frontier checked %d pairs, binary %d", seed, fst.RealizationChecks, dense.RealizationChecks)
	}
	if fst.PrunedCapacity+fst.PrunedClosure > fst.RealizationChecks {
		t.Fatalf("seed %d: pruned %d+%d pairs out of %d checked",
			seed, fst.PrunedCapacity, fst.PrunedClosure, fst.RealizationChecks)
	}
	if dense.PrunedCapacity != 0 || dense.PrunedClosure != 0 || dense.FrontierMaxFlowCalls != 0 {
		t.Fatalf("seed %d: dense engine reported frontier counters: %+v", seed, dense)
	}
	return true
}

// TestFrontierCancellation stops each engine mid-build (via the TestHook,
// after a fixed number of visited configurations) and checks the anytime
// contract: compile is all-or-nothing, so every engine must return an
// error wrapping anytime.ErrInterrupted, and the configurations charged
// before the stop can never exceed a full run's total.
func TestFrontierCancellation(t *testing.T) {
	g, dem, cut := twoBottleneck()
	full, err := Reliability(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(full.Assignments)) * (full.Stats.SideConfigs[0] + full.Stats.SideConfigs[1])
	for _, eng := range compileEngines {
		t.Run(eng.name, func(t *testing.T) {
			ctl := anytime.New(context.Background(), anytime.Budget{})
			var visited atomic.Int64
			opt := Options{
				Bottleneck: cut,
				Side:       eng.side,
				Ctl:        ctl,
				TestHook: func(uint64) {
					if visited.Add(1) == 5 {
						ctl.Stop("test cancellation")
					}
				},
			}
			_, err := Compile(g, dem, opt)
			if err == nil {
				t.Fatal("interrupted compile returned a plan")
			}
			if !errors.Is(err, anytime.ErrInterrupted) {
				t.Fatalf("error does not wrap ErrInterrupted: %v", err)
			}
			if ctl.Configs() > total {
				t.Fatalf("interrupted run charged %d configs, full run charges %d", ctl.Configs(), total)
			}
		})
	}
}

// TestFrontierTinySides: the ascending walk takes sides of any size,
// down to zero links (a terminal-adjacent cut) and one link, with the
// same arrays, checks and answer as the binary walk.
func TestFrontierTinySides(t *testing.T) {
	// Source-adjacent cut: G_s has zero links, G_t has three.
	b := graph.NewBuilder()
	s := b.AddNode()
	y1 := b.AddNode()
	y2 := b.AddNode()
	tt := b.AddNode()
	c1 := b.AddEdge(s, y1, 1, 0.2)
	c2 := b.AddEdge(s, y2, 1, 0.2)
	b.AddEdge(y1, tt, 1, 0.1)
	b.AddEdge(y2, tt, 1, 0.1)
	b.AddEdge(y1, y2, 1, 0.1)
	zero := b.MustBuild()

	// G_s is the single link s→x; G_t has two.
	b = graph.NewBuilder()
	s1 := b.AddNode()
	x := b.AddNode()
	z1 := b.AddNode()
	z2 := b.AddNode()
	t1 := b.AddNode()
	b.AddEdge(s1, x, 2, 0.3)
	d1 := b.AddEdge(x, z1, 1, 0.2)
	d2 := b.AddEdge(x, z2, 1, 0.2)
	b.AddEdge(z1, t1, 1, 0.1)
	b.AddEdge(z2, t1, 2, 0.1)
	one := b.MustBuild()

	cases := []struct {
		name string
		g    *graph.Graph
		dem  graph.Demand
		cut  []graph.EdgeID
		m0   int
	}{
		{"zero-link side", zero, graph.Demand{S: s, T: tt, D: 1}, []graph.EdgeID{c1, c2}, 0},
		{"one-link side", one, graph.Demand{S: s1, T: t1, D: 2}, []graph.EdgeID{d1, d2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr, err := Compile(tc.g, tc.dem, Options{Bottleneck: tc.cut, Side: SideFrontier})
			if err != nil {
				t.Fatal(err)
			}
			bin, err := Compile(tc.g, tc.dem, Options{Bottleneck: tc.cut, Side: SideBinary})
			if err != nil {
				t.Fatal(err)
			}
			if fr.SideEdges[0] != tc.m0 {
				t.Fatalf("G_s has %d links, want %d", fr.SideEdges[0], tc.m0)
			}
			for side := 0; side < 2; side++ {
				a, b := fr.realized[side], bin.realized[side]
				if len(a) != len(b) {
					t.Fatalf("side %d: frontier %d configs, binary %d", side, len(a), len(b))
				}
				for m := range a {
					if a[m] != b[m] {
						t.Fatalf("side %d mask %#x: frontier %#x, binary %#x", side, m, a[m], b[m])
					}
				}
			}
			if fr.Stats.RealizationChecks != bin.Stats.RealizationChecks {
				t.Fatalf("frontier checked %d pairs, binary %d", fr.Stats.RealizationChecks, bin.Stats.RealizationChecks)
			}
			rf, _ := fr.Eval(nil)
			rb, _ := bin.Eval(nil)
			if math.Float64bits(rf) != math.Float64bits(rb) {
				t.Fatalf("frontier %.17g vs binary %.17g", rf, rb)
			}
		})
	}
}
