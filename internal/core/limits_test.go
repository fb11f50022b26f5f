package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
)

// parallelCut routes d units over parallel cut links x_i → y_i of the
// given capacities. Each x_i is fed by `feeders` parallel links s → x_i
// and drains by one link y_i → t, all of capacity d, so the sides have
// feeders·k and k links.
func parallelCut(d int, caps []int, feeders int) (*graph.Graph, graph.Demand, []graph.EdgeID) {
	b := graph.NewBuilder()
	s := b.AddNode()
	tt := b.AddNode()
	cut := make([]graph.EdgeID, len(caps))
	for i, c := range caps {
		x := b.AddNode()
		y := b.AddNode()
		for f := 0; f < feeders; f++ {
			b.AddEdge(s, x, d, 0.1)
		}
		cut[i] = b.AddEdge(x, y, c, 0.05)
		b.AddEdge(y, tt, d, 0.2)
	}
	return b.MustBuild(), graph.Demand{S: s, T: tt, D: d}, cut
}

// A plan past any of the evaluate kernel's bounds is refused at compile
// time with the typed sentinel, even when the caller's Options admit it,
// and the refusal comes before any side walk: no configuration reaches
// the test hook, none is charged, no max-flow call is paid. A refusal on
// |𝒟| or the cut width also comes before the 2^k class table is built:
// over a 24-link cut that table alone is 128 MiB, and the compile must
// allocate far less.
func TestCompileLimitRejectsBeforeSideWalk(t *testing.T) {
	cases := []struct {
		name    string
		d       int
		caps    []int
		feeders int
		opt     Options
	}{
		// d = 5 over three capacity-5 links: |𝒟| = C(7, 2) = 21.
		{"assignments", 5, []int{5, 5, 5}, 1, Options{MaxAssignmentSet: 21}},
		// 27 parallel feeders: a 27-link source side.
		{"side width", 1, []int{1}, 27, Options{MaxSideEdges: 27}},
		// d = 3 over four capacity-3 links gives |𝒟| = C(6, 3) = 20, and
		// three capacity-0 links no assignment uses: each of the 2^3
		// configurations with the four live links has all 20 assignments
		// in its class, 8·(2^20 − 1) terms.
		{"term table", 3, []int{3, 3, 3, 3, 0, 0, 0}, 1, Options{}},
		// d = 1 over 24 capacity-1 links: |𝒟| = 24, sides of 24 links.
		{"assignments on a wide cut", 1, ones(24), 1, Options{}},
		// d = 24 over the same cut: |𝒟| = 1, but 24 cut links.
		{"cut width", 24, ones(24), 1, Options{MaxSideEdges: 26}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, dem, cut := parallelCut(tc.d, tc.caps, tc.feeders)
			ctl := anytime.New(context.Background(), anytime.Budget{})
			visited := 0
			callsBefore := mMaxFlowCalls.Value()
			opt := tc.opt
			opt.Bottleneck = cut
			opt.Ctl = ctl
			opt.TestHook = func(uint64) { visited++ }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Compile(g, dem, opt)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrLimit) || !strings.Contains(err.Error(), "evaluate kernel") {
				t.Fatalf("got %v, want an error wrapping ErrLimit at an evaluate-kernel bound", err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
				t.Fatalf("refused compile allocated %d bytes; want under 1 MiB", b)
			}
			if visited != 0 || ctl.Configs() != 0 || ctl.MaxFlowCalls() != 0 {
				t.Fatalf("refused compile walked %d masks, charged %d configurations and %d max-flow calls; want none",
					visited, ctl.Configs(), ctl.MaxFlowCalls())
			}
			if d := mMaxFlowCalls.Value() - callsBefore; d != 0 {
				t.Fatalf("refused compile paid %d max-flow calls", d)
			}
		})
	}
}

// ones is k unit capacities.
func ones(k int) []int {
	caps := make([]int, k)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}

// A mutation that pushes a plan over a limit is refused by MutatePlan
// exactly as by a cold compile of the mutated graph, before any side
// work: raising a cut capacity grows |𝒟| past the kernel's bound, and
// adding a side link grows the side past MaxSideEdges on the delta path
// itself.
func TestMutateLimitMatchesCold(t *testing.T) {
	// d = 5 over capacities 5, 5, 4: |𝒟| = 21 − 1 = 20, inside every
	// bound until the third link's capacity reaches 5.
	g, dem, cut := parallelCut(5, []int{5, 5, 4}, 1)
	cases := []struct {
		name      string
		opt       Options
		mut       graph.Mutation
		fallbacks int64 // cold fallbacks MutatePlan takes before refusing
	}{
		{"cut capacity grows 𝒟", Options{Bottleneck: cut, MaxAssignmentSet: 21},
			graph.Mutation{Kind: graph.MutateCapacity, Link: cut[2], Cap: 5}, 1},
		{"added link grows a side", Options{Bottleneck: cut, MaxSideEdges: 3},
			graph.Mutation{Kind: graph.MutateAdd, U: dem.S, V: g.Edge(cut[0]).U, Cap: 1, PFail: 0.1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := Compile(g, dem, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if parent.kern == nil {
				t.Fatal("parent compiled without a kernel")
			}
			g2, remap, err := tc.mut.Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name    string
				compile func(Options) (*Plan, error)
			}{
				{"cold", func(o Options) (*Plan, error) { return Compile(g2, dem, o) }},
				{"delta", func(o Options) (*Plan, error) { return MutatePlan(parent, g, g2, dem, tc.mut, remap, o) }},
			} {
				ctl := anytime.New(context.Background(), anytime.Budget{})
				opt := tc.opt
				opt.Ctl = ctl
				fallbacks := mDeltaFallbacks.Value()
				if _, err := run.compile(opt); !errors.Is(err, ErrLimit) {
					t.Fatalf("%s: got %v, want an error wrapping ErrLimit", run.name, err)
				}
				if d := mDeltaFallbacks.Value() - fallbacks; run.name == "delta" && d != tc.fallbacks {
					t.Fatalf("delta: %d cold fallbacks before the refusal, want %d", d, tc.fallbacks)
				}
				if ctl.Configs() != 0 || ctl.MaxFlowCalls() != 0 {
					t.Fatalf("%s: refused compile charged %d configurations and %d max-flow calls", run.name, ctl.Configs(), ctl.MaxFlowCalls())
				}
			}
		})
	}
}
