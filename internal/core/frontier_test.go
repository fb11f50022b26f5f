package core

import (
	"context"
	"errors"
	"fmt"
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
		if checkFrontierEquivalent(t, seed, g, dem, cut, 0, 14) != nil {
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
		if checkFrontierEquivalent(t, seed, g, dem, cut, 10, 16) != nil {
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
// The pairs pruned by capacity, closure and off-path copies cannot
// exceed the pairs checked. The planted cut can
// fail minimality; the cut search then picks the split. Once a split is
// valid, any compile error — a walk panic among them — fails the test.
// It returns the checked plan, or nil, checking nothing, when no split
// exists, when the instance is trivial (its cut cannot carry the demand)
// or when a side falls outside [minSide, maxSide] links.
func checkFrontierEquivalent(t *testing.T, seed int64, g *graph.Graph, dem graph.Demand, cut []graph.EdgeID, minSide, maxSide int) *Plan {
	t.Helper()
	bt, err := mincut.Split(g, dem.S, dem.T, cut)
	if err != nil {
		bt, err = mincut.Find(g, dem.S, dem.T, 3)
	}
	if err != nil {
		return nil
	}
	ctl := anytime.New(context.Background(), anytime.Budget{})
	plan, err := CompileWithBottleneck(g, dem, bt, Options{Ctl: ctl})
	if err != nil {
		t.Fatalf("seed %d: compile failed on a valid split: %v", seed, err)
	}
	if len(plan.Assignments) == 0 {
		return nil
	}
	for _, m := range plan.SideEdges {
		if m < minSide || m > maxSide {
			return nil
		}
	}
	ref := denseRealized(plan, dem)
	for side := 0; side < 2; side++ {
		a, b := planRealized(plan, side), ref[side]
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
	if st.PrunedCapacity+st.PrunedClosure+st.PrunedOffPath > st.RealizationChecks {
		t.Fatalf("seed %d: pruned %d+%d+%d pairs out of %d checked",
			seed, st.PrunedCapacity, st.PrunedClosure, st.PrunedOffPath, st.RealizationChecks)
	}
	return plan
}

// TestFrontierWordEdges holds the walk to the dense oracle at the edges
// of a row word: a side of 5 links fills part of one word, 6 links fill
// it exactly and 7 links span two, each with a single assignment and
// with seven or more.
func TestFrontierWordEdges(t *testing.T) {
	for _, m := range []int{5, 6, 7} {
		for _, wide := range []bool{false, true} {
			name := fmt.Sprintf("%d-links/one-assignment", m)
			if wide {
				name = fmt.Sprintf("%d-links/seven-or-more", m)
			}
			t.Run(name, func(t *testing.T) {
				for seed := int64(0); seed < 5000; seed++ {
					rng := rand.New(rand.NewSource(seed))
					k, d := 1, 1+rng.Intn(3)
					if wide {
						k, d = 3, 3+rng.Intn(2)
					}
					g, dem, cut := plantBottleneck(rng, 3+rng.Intn(3), m, k, d)
					plan := checkFrontierEquivalent(t, seed, g, dem, cut, 1, 9)
					if plan == nil || (plan.SideEdges[0] != m && plan.SideEdges[1] != m) {
						continue
					}
					if n := len(plan.Assignments); (n == 1 && !wide) || (n >= 7 && wide) {
						return
					}
				}
				t.Fatal("no instance of this shape in 5000 seeds")
			})
		}
	}
}

// TestFrontierHugeCapacity: a side link may carry far more than the
// demand. The capacity bound clamps it at d, so its table stays sized by
// d, and the arrays still match the dense walk.
func TestFrontierHugeCapacity(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, dem, cut := plantBottleneck(rng, 4, 8, 2, 2)
		// Link 0 is the source side's first tree link.
		g, err := g.WithCapacity(0, 1_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if checkFrontierEquivalent(t, seed, g, dem, cut, 0, 14) != nil {
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d of 20 instances compiled", checked)
	}
}

// TestWordPatterns checks the in-word set operations against their
// definitions over the 64 low masks.
func TestWordPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64() & rng.Uint64() & rng.Uint64()
		var want uint64
		for lo := uint64(0); lo < 64; lo++ {
			for sub := uint64(0); sub < 64; sub++ {
				if sub&^lo == 0 && x&(1<<sub) != 0 {
					want |= 1 << lo
				}
			}
		}
		if got := upClose(x); got != want {
			t.Fatalf("upClose(%#x) = %#x, want %#x", x, got, want)
		}
	}
	for b := 0; b < 64; b++ {
		var up, disjoint uint64
		for lo := 0; lo < 64; lo++ {
			if lo&b == b {
				up |= 1 << lo
			}
			if lo&b == 0 {
				disjoint |= 1 << lo
			}
		}
		if got := upLow(b); got != up {
			t.Fatalf("upLow(%d) = %#x, want %#x", b, got, up)
		}
		// High links of a certificate do not enter its in-word pattern.
		if got := disjointLow(uint64(b) | 0xABC0); got != disjoint {
			t.Fatalf("disjointLow(%#x) = %#x, want %#x", uint64(b)|0xABC0, got, disjoint)
		}
	}
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
		checkInterrupted(t, g, dem, cut, 5, total)
	})
	// On a 13-link side of 128 row words: inside the first word, at its
	// last mask, just past it, and past the first charge grain.
	wg, wdem, wcut := wideSideInstance()
	wfull, err := Reliability(wg, wdem, Options{Bottleneck: wcut})
	if err != nil {
		t.Fatal(err)
	}
	if wfull.SideEdges[0] < 13 {
		t.Fatalf("fixture: source side has %d links, want ≥ 13", wfull.SideEdges[0])
	}
	wtotal := uint64(len(wfull.Assignments)) * (wfull.Stats.SideConfigs[0] + wfull.Stats.SideConfigs[1])
	for _, stop := range []int64{63, 64, 65, 4097} {
		t.Run(fmt.Sprintf("word-edge-%d", stop), func(t *testing.T) {
			checkInterrupted(t, wg, wdem, wcut, stop, wtotal)
		})
	}
}

// checkInterrupted stops a compile after stop visited masks and fails
// the test unless it returns an error wrapping anytime.ErrInterrupted
// having charged no more than total, a full run's charge.
func checkInterrupted(t *testing.T, g *graph.Graph, dem graph.Demand, cut []graph.EdgeID, stop int64, total uint64) {
	t.Helper()
	ctl := anytime.New(context.Background(), anytime.Budget{})
	var visited atomic.Int64
	opt := Options{
		Bottleneck: cut,
		Ctl:        ctl,
		TestHook: func(uint64) {
			if visited.Add(1) == stop {
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
				a, b := planRealized(fr, side), ref[side]
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
