package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
	"flowrel/internal/mincut"
)

// TestFrontierEquivalenceCorpus is the frontier walk's contract on the
// 50-graph planted-bottleneck corpus: both realization arrays must be
// bit-identical to the dense binary walk's (denseRealized), and the walk
// must count and charge every (assignment, configuration) pair —
// pruning changes what is *paid*, never what is *counted* (see
// checkFrontierEquivalent).
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
		if checkFrontierEquivalent(t, seed, g, dem, cut, 0, 14) {
			count++
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// TestFrontierEquivalenceLargeSides extends the corpus to sides of 10–16
// links, the sizes cold compiles see, where certificates decide most
// pairs and a walk visits thousands of masks per side.
func TestFrontierEquivalenceLargeSides(t *testing.T) {
	const wantGraphs = 20
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, cut := plantBottleneck(rng, 5+rng.Intn(3), 10+rng.Intn(7), k, d)
		if checkFrontierEquivalent(t, seed, g, dem, cut, 10, 16) {
			count++
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}

// checkFrontierEquivalent compiles one instance and fails the test unless
// both realization arrays are bit-identical to the dense binary walk's,
// the compile made exactly |𝒟|·(2^{|E_s|} + 2^{|E_t|}) realization
// checks, and it charged the budget exactly that many configurations.
// The pruned pairs cannot exceed the pairs checked. The planted cut can
// fail minimality; the cut search then picks the split. Once a split is
// valid, any compile error — a walk panic among them — fails the test.
// It reports false, checking nothing, when no split exists, when the
// instance is trivial (its cut cannot carry the demand) or when a side
// falls outside [minSide, maxSide] links.
func checkFrontierEquivalent(t *testing.T, seed int64, g *graph.Graph, dem graph.Demand, cut []graph.EdgeID, minSide, maxSide int) bool {
	t.Helper()
	bt, err := mincut.Split(g, dem.S, dem.T, cut)
	if err != nil {
		bt, err = mincut.Find(g, dem.S, dem.T, 3)
	}
	if err != nil {
		return false
	}
	ctl := anytime.New(context.Background(), anytime.Budget{})
	plan, err := CompileWithBottleneck(g, dem, bt, Options{MaxAssignmentSet: 62, Ctl: ctl})
	if err != nil {
		t.Fatalf("seed %d: compile failed on a valid split: %v", seed, err)
	}
	if len(plan.Assignments) == 0 {
		return false
	}
	for _, m := range plan.SideEdges {
		if m < minSide || m > maxSide {
			return false
		}
	}
	ref := denseRealized(plan, dem)
	for side := 0; side < 2; side++ {
		a, b := plan.realized[side], ref[side]
		if len(a) != len(b) {
			t.Fatalf("seed %d: side %d has %d configs, dense walk %d", seed, side, len(a), len(b))
		}
		for m := range a {
			if a[m] != b[m] {
				t.Fatalf("seed %d: side %d mask %#x: frontier realized %#x, dense walk %#x",
					seed, side, m, a[m], b[m])
			}
		}
	}
	st := plan.Stats
	want := int64(len(plan.Assignments)) * int64(len(ref[0])+len(ref[1]))
	if st.RealizationChecks != want {
		t.Fatalf("seed %d: frontier checked %d pairs, |𝒟|·(2^|E_s| + 2^|E_t|) = %d", seed, st.RealizationChecks, want)
	}
	if ctl.Configs() != uint64(want) {
		t.Fatalf("seed %d: frontier charged %d configs, checked %d — budgets diverge", seed, ctl.Configs(), want)
	}
	if st.PrunedCapacity+st.PrunedClosure > st.RealizationChecks {
		t.Fatalf("seed %d: pruned %d+%d pairs out of %d checked",
			seed, st.PrunedCapacity, st.PrunedClosure, st.RealizationChecks)
	}
	return true
}

// TestFrontierCancellation stops the walk mid-build (via the TestHook,
// after a fixed number of visited configurations) and checks the anytime
// contract: compile is all-or-nothing, so it must return an error
// wrapping anytime.ErrInterrupted, and the configurations charged before
// the stop can never exceed a full run's total.
func TestFrontierCancellation(t *testing.T) {
	g, dem, cut := twoBottleneck()
	full, err := Reliability(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(full.Assignments)) * (full.Stats.SideConfigs[0] + full.Stats.SideConfigs[1])
	t.Run("frontier", func(t *testing.T) {
		ctl := anytime.New(context.Background(), anytime.Budget{})
		var visited atomic.Int64
		opt := Options{
			Bottleneck: cut,
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

// TestFrontierTinySides: the ascending walk takes sides of any size,
// down to zero links (a terminal-adjacent cut) and one link, with the
// same arrays and checks as the dense binary walk.
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
			fr, err := Compile(tc.g, tc.dem, Options{Bottleneck: tc.cut})
			if err != nil {
				t.Fatal(err)
			}
			if fr.SideEdges[0] != tc.m0 {
				t.Fatalf("G_s has %d links, want %d", fr.SideEdges[0], tc.m0)
			}
			ref := denseRealized(fr, tc.dem)
			for side := 0; side < 2; side++ {
				a, b := fr.realized[side], ref[side]
				if len(a) != len(b) {
					t.Fatalf("side %d: frontier %d configs, dense walk %d", side, len(a), len(b))
				}
				for m := range a {
					if a[m] != b[m] {
						t.Fatalf("side %d mask %#x: frontier %#x, dense walk %#x", side, m, a[m], b[m])
					}
				}
			}
			want := int64(len(fr.Assignments)) * int64(len(ref[0])+len(ref[1]))
			if fr.Stats.RealizationChecks != want {
				t.Fatalf("frontier checked %d pairs, dense walk %d", fr.Stats.RealizationChecks, want)
			}
		})
	}
}
