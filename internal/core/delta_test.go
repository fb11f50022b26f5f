package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
)

// randomMutation draws a valid single-link mutation against g: mostly
// capacity changes (the common churn event), with add/remove mixed in.
// Adds are suppressed once the graph is large enough that the compile
// guards could differ between runs.
func randomMutation(rng *rand.Rand, g *graph.Graph, d int) graph.Mutation {
	roll := rng.Intn(4)
	if roll == 2 && g.NumEdges() >= 15 {
		roll = 0
	}
	if roll == 3 && g.NumEdges() <= 2 {
		roll = 0
	}
	switch roll {
	case 2:
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		for v == u {
			v = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		return graph.Mutation{Kind: graph.MutateAdd, U: u, V: v, Cap: 1 + rng.Intn(d+1), PFail: rng.Float64() * 0.9}
	case 3:
		return graph.Mutation{Kind: graph.MutateRemove, Link: graph.EdgeID(rng.Intn(g.NumEdges()))}
	default:
		return graph.Mutation{Kind: graph.MutateCapacity, Link: graph.EdgeID(rng.Intn(g.NumEdges())), Cap: rng.Intn(d + 2)}
	}
}

// assertPlansEqual checks every observable of the two plans bit for bit:
// decomposition, rows, kernel tables, budget charges and evaluation
// results.
func assertPlansEqual(t *testing.T, seed int64, step int, delta, cold *Plan, chargedDelta, chargedCold uint64) {
	t.Helper()
	if !equalCuts(delta.Cut, cold.Cut) {
		t.Fatalf("seed %d step %d: delta cut %v, cold cut %v", seed, step, delta.Cut, cold.Cut)
	}
	if math.Float64bits(delta.Alpha) != math.Float64bits(cold.Alpha) {
		t.Fatalf("seed %d step %d: delta alpha %v, cold alpha %v", seed, step, delta.Alpha, cold.Alpha)
	}
	if len(delta.Assignments) != len(cold.Assignments) {
		t.Fatalf("seed %d step %d: |𝒟| delta %d, cold %d", seed, step, len(delta.Assignments), len(cold.Assignments))
	}
	for side := 0; side < 2; side++ {
		if !slices.Equal(delta.sideLinks[side], cold.sideLinks[side]) {
			t.Fatalf("seed %d step %d: side %d links: delta %v, cold %v", seed, step, side, delta.sideLinks[side], cold.sideLinks[side])
		}
		r, c := delta.rows[side], cold.rows[side]
		if len(r) != len(c) {
			t.Fatalf("seed %d step %d: side %d has %d row words delta, %d cold", seed, step, side, len(r), len(c))
		}
		for i := range r {
			if r[i] != c[i] {
				t.Fatalf("seed %d step %d: side %d row word %d: delta %#x, cold %#x", seed, step, side, i, r[i], c[i])
			}
		}
	}
	if (delta.kern == nil) != (cold.kern == nil) {
		t.Fatalf("seed %d step %d: delta kernel %v, cold kernel %v", seed, step, delta.kern != nil, cold.kern != nil)
	}
	if dk, ck := delta.kern, cold.kern; dk != nil {
		if delta.lanes != cold.lanes || !slices.Equal(dk.cfgs, ck.cfgs) || !slices.Equal(dk.termX, ck.termX) || !slices.Equal(dk.termSign, ck.termSign) {
			t.Fatalf("seed %d step %d: kernel term tables diverge", seed, step)
		}
		if delta.Stats.KernelSegments != cold.Stats.KernelSegments {
			t.Fatalf("seed %d step %d: delta counts %d set sums, cold %d", seed, step, delta.Stats.KernelSegments, cold.Stats.KernelSegments)
		}
	}
	if delta.Stats.OnPathLinks != cold.Stats.OnPathLinks {
		t.Fatalf("seed %d step %d: on-path links delta %v, cold %v", seed, step, delta.Stats.OnPathLinks, cold.Stats.OnPathLinks)
	}
	if chargedDelta != chargedCold {
		t.Fatalf("seed %d step %d: delta charged %d configs, cold charged %d — budgets diverge", seed, step, chargedDelta, chargedCold)
	}
	if delta.Stats.RealizationChecks != cold.Stats.RealizationChecks {
		t.Fatalf("seed %d step %d: delta checked %d pairs, cold %d", seed, step, delta.Stats.RealizationChecks, cold.Stats.RealizationChecks)
	}
	rd, err := delta.Eval(nil)
	if err != nil {
		t.Fatalf("seed %d step %d: delta Eval: %v", seed, step, err)
	}
	rc, err := cold.Eval(nil)
	if err != nil {
		t.Fatalf("seed %d step %d: cold Eval: %v", seed, step, err)
	}
	if math.Float64bits(rd) != math.Float64bits(rc) {
		t.Fatalf("seed %d step %d: delta Eval %v, cold Eval %v", seed, step, rd, rc)
	}
	rds, _ := delta.EvalScalar(nil)
	rcs, _ := cold.EvalScalar(nil)
	if math.Float64bits(rds) != math.Float64bits(rcs) {
		t.Fatalf("seed %d step %d: delta EvalScalar %v, cold EvalScalar %v", seed, step, rds, rcs)
	}
}

// TestMutateEquivalenceCorpus is the delta-compile contract on the
// planted-bottleneck corpus: across ≥50 graphs, a chained stream of
// random single-link mutations (capacity change, add, remove) through
// MutatePlan must be bit-identical to a cold compile after every step —
// same rows, same kernel tables, same Eval results, and
// the identical number of configurations charged to the anytime budget.
// The chain continues from the *delta* plan, so reuse errors compound
// instead of washing out.
func TestMutateEquivalenceCorpus(t *testing.T) {
	const wantGraphs = 50
	const steps = 6
	count := 0
	kinds := [3]int{}
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		g, dem, _ := plantBottleneck(rng, 2+rng.Intn(3), 2+rng.Intn(4), k, d)
		if g.NumEdges() > 12 {
			continue
		}
		ctl := anytime.New(context.Background(), anytime.Budget{})
		parent, err := Compile(g, dem, Options{Ctl: ctl})
		if err != nil {
			continue
		}
		count++
		if parent.Version() != 0 {
			t.Fatalf("seed %d: cold compile has version %d", seed, parent.Version())
		}
		for step := 0; step < steps; step++ {
			mut := randomMutation(rng, g, d)
			g2, remap, err := mut.Apply(g)
			if err != nil {
				t.Fatalf("seed %d step %d: %v applied to a valid graph: %v", seed, step, mut, err)
			}
			ctlCold := anytime.New(context.Background(), anytime.Budget{})
			cold, errCold := Compile(g2, dem, Options{Ctl: ctlCold})
			ctlDelta := anytime.New(context.Background(), anytime.Budget{})
			delta, errDelta := MutatePlan(parent, g, g2, dem, mut, remap, Options{Ctl: ctlDelta})
			if errCold != nil {
				// The mutation broke the instance (disconnected it, or
				// pushed it over a guard): the delta path must refuse it
				// the same way, and the stream continues from the parent.
				if errDelta == nil {
					t.Fatalf("seed %d step %d: cold compile failed (%v) but MutatePlan succeeded for %v", seed, step, errCold, mut)
				}
				continue
			}
			if errDelta != nil {
				t.Fatalf("seed %d step %d: MutatePlan failed for %v: %v", seed, step, mut, errDelta)
			}
			kinds[mut.Kind]++
			if delta.Version() != parent.Version()+1 {
				t.Fatalf("seed %d step %d: version %d after parent %d", seed, step, delta.Version(), parent.Version())
			}
			assertPlansEqual(t, seed, step, delta, cold, ctlDelta.Configs(), ctlCold.Configs())
			g, parent = g2, delta
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Fatalf("mutation stream never exercised kind %v", graph.MutationKind(kind))
		}
	}
}

// TestMutateReusesParentWork pins the point of the delta path: on a
// two-sided instance, a capacity change on one side must transfer the
// other side's rows pointer-for-pointer, inherit decisions from the
// parent, and pay strictly fewer max-flow calls than the cold compile.
func TestMutateReusesParentWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, dem, _ := plantBottleneck(rng, 3, 5, 2, 2)
	parent, err := Compile(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if parent.ds == nil {
		t.Skip("trivial instance")
	}
	// Pick a side link and nudge its capacity.
	link := parent.sideLinks[0][0]
	mut := graph.Mutation{Kind: graph.MutateCapacity, Link: link, Cap: g.Edge(link).Cap + 1}
	g2, remap, err := mut.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := MutatePlan(parent, g, g2, dem, mut, remap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(g2, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameWords(delta.rows[1], parent.rows[1]) {
		t.Fatal("untouched side was rebuilt, not shared")
	}
	if delta.Stats.DeltaReused == 0 {
		t.Fatal("delta compile inherited no decisions")
	}
	coldCalls := cold.Stats.MaxFlowCalls + cold.Stats.FrontierMaxFlowCalls
	deltaCalls := delta.Stats.MaxFlowCalls + delta.Stats.FrontierMaxFlowCalls
	if deltaCalls >= coldCalls {
		t.Fatalf("delta paid %d max-flow calls, cold %d — no reuse", deltaCalls, coldCalls)
	}
	assertPlansEqual(t, 7, 0, delta, cold, 0, 0)
}

// TestMutateBudgetInterruption: an exhausted anytime budget must abort
// the delta compile with ErrInterrupted — the transfers charge the same
// configuration totals a cold build would, so a budget too small for a
// cold compile is too small for a mutation too.
func TestMutateBudgetInterruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, dem, _ := plantBottleneck(rng, 3, 5, 2, 2)
	parent, err := Compile(g, dem, Options{})
	if err != nil || parent.ds == nil {
		t.Skipf("unusable instance: %v", err)
	}
	link := parent.sideLinks[0][0]
	mut := graph.Mutation{Kind: graph.MutateCapacity, Link: link, Cap: g.Edge(link).Cap + 1}
	g2, remap, err := mut.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: 2})
	_, err = MutatePlan(parent, g, g2, dem, mut, remap, Options{Ctl: ctl})
	if err == nil {
		t.Fatal("exhausted budget produced a plan")
	}
	if !errors.Is(err, anytime.ErrInterrupted) {
		t.Fatalf("interruption error does not wrap ErrInterrupted: %v", err)
	}
}

// wideSideInstance has a 13-link source side over four nodes, one cut
// link x → y and a one-link sink side, with d = 2 so |𝒟| = 1. A
// touched-side walk then charges 2^13 configurations, twice the
// amortization grain, while the untouched side's bulk charge is 2.
func wideSideInstance() (*graph.Graph, graph.Demand, []graph.EdgeID) {
	b := graph.NewBuilder()
	b.AddNodes(6) // source side 0..3 (s = 0, x = 3), y = 4, t = 5
	pairs := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {0, 3}}
	for i, pr := range pairs {
		b.AddEdge(pr[0], pr[1], 1+i%2, 0.1)
		b.AddEdge(pr[1], pr[0], 1, 0.2)
	}
	b.AddEdge(0, 1, 1, 0.3)
	cut := b.AddEdge(3, 4, 2, 0.05)
	b.AddEdge(4, 5, 2, 0.1)
	return b.MustBuild(), graph.Demand{S: 0, T: 5, D: 2}, []graph.EdgeID{cut}
}

// TestMutateBudgetInterruptsWalk: a budget that admits the untouched
// side's bulk charge but runs out inside the touched-side walk must stop
// that walk at its next budget check and fail the mutation with
// ErrInterrupted — for each walk mode.
func TestMutateBudgetInterruptsWalk(t *testing.T) {
	g, dem, cut := wideSideInstance()
	parent, err := Compile(g, dem, Options{Bottleneck: cut})
	if err != nil {
		t.Fatal(err)
	}
	if parent.SideEdges != [2]int{13, 1} || len(parent.Assignments) != 1 {
		t.Fatalf("fixture: sides %v, |𝒟| = %d; want [13 1] and 1", parent.SideEdges, len(parent.Assignments))
	}
	link := parent.sideLinks[0][0]
	cases := []struct {
		name string
		mut  graph.Mutation
	}{
		{"shrink", graph.Mutation{Kind: graph.MutateCapacity, Link: link, Cap: 0}},
		{"grow", graph.Mutation{Kind: graph.MutateCapacity, Link: link, Cap: 3}},
		{"add", graph.Mutation{Kind: graph.MutateAdd, U: 1, V: 2, Cap: 2, PFail: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g2, remap, err := tc.mut.Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			const bulk = 2 // the sink side: 2^1 configurations × |𝒟|
			ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: bulk + 1})
			visited := 0
			_, err = MutatePlan(parent, g, g2, dem, tc.mut, remap, Options{
				Bottleneck: cut,
				Ctl:        ctl,
				TestHook:   func(uint64) { visited++ },
			})
			if !errors.Is(err, anytime.ErrInterrupted) {
				t.Fatalf("got %v, want an error wrapping ErrInterrupted", err)
			}
			// Half the source side's masks (every link but the cut and
			// sink links) carry the walked bit; the budget check after the
			// first 4096 charged configurations stops the walk.
			walked := 1 << (g2.NumEdges() - 2 - 1)
			if visited == 0 || visited >= walked {
				t.Fatalf("walk visited %d of %d masks: the budget did not stop it mid-walk", visited, walked)
			}
			if ctl.Configs() <= bulk {
				t.Fatalf("charged %d configurations: the walk never charged", ctl.Configs())
			}
		})
	}
}

// TestMutateWordEdges runs each delta walk with its walked bit inside a
// row word (a link below 6: half of every word is walked) and across
// words (link 6 and up: whole words), on the 13-link side of
// wideSideInstance, and holds each step to its cold compile: rows,
// kernel tables, Eval bits and charges. An added link is the
// side's new top bit, so the add inside a word runs on a 3-link side,
// as does a shrink whose closure needs the walked word's own twin bits.
// The walk's work counters are exact, so they are pinned too: a change
// to the solve order or to a counter's definition shows here.
func TestMutateWordEdges(t *testing.T) {
	wg, wdem, wcut := wideSideInstance()
	tg, tdem, tcut := twoBottleneck()
	cases := []struct {
		name string
		g    *graph.Graph
		dem  graph.Demand
		cut  []graph.EdgeID
		side int // index into the parent's source-side links, or -1 for an add
		cap  int
		u, v graph.NodeID
		// FrontierMaxFlowCalls, PrunedCapacity, PrunedClosure, DeltaReused
		want [4]int64
	}{
		{name: "shrink/bit-1", g: tg, dem: tdem, cut: tcut, side: 1, cap: 0, want: [4]int64{3, 2, 3, 40}},
		{name: "shrink/bit-4", g: wg, dem: wdem, cut: wcut, side: 4, cap: 0, want: [4]int64{4, 509, 2048, 5634}},
		{name: "shrink/bit-10", g: wg, dem: wdem, cut: wcut, side: 10, cap: 1, want: [4]int64{15, 1660, 2426, 4098}},
		{name: "grow/bit-4", g: wg, dem: wdem, cut: wcut, side: 4, cap: 2, want: [4]int64{44, 893, 0, 6658}},
		{name: "grow/bit-8", g: wg, dem: wdem, cut: wcut, side: 8, cap: 2, want: [4]int64{69, 1082, 0, 6658}},
		{name: "add/bit-3", g: tg, dem: tdem, cut: tcut, side: -1, cap: 2, u: 2, v: 1, want: [4]int64{11, 5, 5, 54}},
		{name: "add/bit-13", g: wg, dem: wdem, cut: wcut, side: -1, cap: 2, u: 1, v: 2, want: [4]int64{10, 3515, 0, 12802}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Bottleneck: tc.cut}
			parent, err := Compile(tc.g, tc.dem, opt)
			if err != nil {
				t.Fatal(err)
			}
			mut := graph.Mutation{Kind: graph.MutateAdd, U: tc.u, V: tc.v, Cap: tc.cap, PFail: 0.1}
			if tc.side >= 0 {
				mut = graph.Mutation{Kind: graph.MutateCapacity, Link: parent.sideLinks[0][tc.side], Cap: tc.cap}
			}
			g2, remap, err := mut.Apply(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			before := append([]uint64(nil), parent.rows[0]...)
			ctlDelta := anytime.New(context.Background(), anytime.Budget{})
			opt.Ctl = ctlDelta
			delta, err := MutatePlan(parent, tc.g, g2, tc.dem, mut, remap, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range before {
				if parent.rows[0][i] != w {
					t.Fatalf("the walk wrote the parent's row word %d", i)
				}
			}
			ctlCold := anytime.New(context.Background(), anytime.Budget{})
			opt.Ctl = ctlCold
			cold, err := Compile(g2, tc.dem, opt)
			if err != nil {
				t.Fatal(err)
			}
			if delta.Stats.DeltaReused == 0 {
				t.Fatal("the mutation fell back to a cold compile")
			}
			if sameWords(delta.rows[0], parent.rows[0]) {
				t.Fatal("fixture: the mutation changes no configuration of the walked side")
			}
			assertPlansEqual(t, 0, 0, delta, cold, ctlDelta.Configs(), ctlCold.Configs())
			st := delta.Stats
			if got := [4]int64{st.FrontierMaxFlowCalls, st.PrunedCapacity, st.PrunedClosure, st.DeltaReused}; got != tc.want {
				t.Fatalf("calls, pruned by capacity, pruned by closure, reused = %v, want %v", got, tc.want)
			}
		})
	}
}

// offPathInstance has a four-link source side s → a → x, s → x and
// b → x, one cut link x → y and a one-link sink side, with d = 2. No
// link enters b, so b → x lies on no path from s to x until a link s → b
// is added.
func offPathInstance() (*graph.Graph, graph.Demand, []graph.EdgeID, graph.EdgeID) {
	b := graph.NewBuilder()
	b.AddNodes(6) // s = 0, a = 1, b = 2, x = 3, y = 4, t = 5
	b.AddEdge(0, 1, 2, 0.1)
	b.AddEdge(1, 3, 2, 0.2)
	b.AddEdge(0, 3, 1, 0.3)
	off := b.AddEdge(2, 3, 1, 0.1)
	cut := b.AddEdge(3, 4, 2, 0.05)
	b.AddEdge(4, 5, 2, 0.1)
	return b.MustBuild(), graph.Demand{S: 0, T: 5, D: 2}, []graph.EdgeID{cut}, off
}

// TestMutateOffPathFlap: a capacity change on a link that lies on no
// path between the side's terminals changes no row, so the child shares
// the parent's rows and kernel pointer-wise, pays no max-flow call and
// charges what a cold compile charges. The warm solver state must still
// take the new capacity: the chain first warms the side with an on-path
// flap, flaps the off-path link, adds the link that puts it on a path
// (a walk on the warm state) and flaps it again, and every step must
// equal its cold compile.
func TestMutateOffPathFlap(t *testing.T) {
	g, dem, cut, off := offPathInstance()
	opt := Options{Bottleneck: cut}
	parent, err := Compile(g, dem, opt)
	if err != nil {
		t.Fatal(err)
	}
	if parent.SideEdges != [2]int{4, 1} || len(parent.Assignments) != 1 {
		t.Fatalf("fixture: sides %v, |𝒟| = %d; want [4 1] and 1", parent.SideEdges, len(parent.Assignments))
	}
	steps := []graph.Mutation{
		{Kind: graph.MutateCapacity, Link: 0, Cap: 1},
		{Kind: graph.MutateCapacity, Link: off, Cap: 2},
		{Kind: graph.MutateAdd, U: 0, V: 2, Cap: 2, PFail: 0.2},
		{Kind: graph.MutateCapacity, Link: off, Cap: 1},
	}
	for step, mut := range steps {
		g2, remap, err := mut.Apply(g)
		if err != nil {
			t.Fatal(err)
		}
		ctlDelta := anytime.New(context.Background(), anytime.Budget{})
		opt.Ctl = ctlDelta
		delta, err := MutatePlan(parent, g, g2, dem, mut, remap, opt)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ctlCold := anytime.New(context.Background(), anytime.Budget{})
		opt.Ctl = ctlCold
		cold, err := Compile(g2, dem, opt)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Stats.DeltaReused == 0 {
			t.Fatalf("step %d: the mutation fell back to a cold compile", step)
		}
		assertPlansEqual(t, 0, step, delta, cold, ctlDelta.Configs(), ctlCold.Configs())
		shared := sameWords(delta.rows[0], parent.rows[0]) && delta.kern == parent.kern
		calls := delta.Stats.MaxFlowCalls + delta.Stats.FrontierMaxFlowCalls
		if step == 1 {
			if !shared || calls != 0 {
				t.Fatalf("off-path flap: rows and kernel shared %v, %d max-flow calls; want shared and 0", shared, calls)
			}
		} else if shared || calls == 0 {
			t.Fatalf("step %d: rows and kernel shared %v, %d max-flow calls; want a walk", step, shared, calls)
		}
		g, parent = g2, delta
	}
}

// TestMutateConcurrentParent: a compiled plan is immutable, so many
// goroutines may mutate one parent at once. They read its rows
// together, each copies them before its first write, and one of
// them inherits the warm solver state; every result must still equal
// its cold compile.
func TestMutateConcurrentParent(t *testing.T) {
	g, dem, cut := wideSideInstance()
	opt := Options{Bottleneck: cut}
	parent, err := Compile(g, dem, opt)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var (
		wg    sync.WaitGroup
		gs    [workers]*graph.Graph
		plans [workers]*Plan
		errs  [workers]error
	)
	for i := 0; i < workers; i++ {
		mut := graph.Mutation{Kind: graph.MutateCapacity, Link: parent.sideLinks[0][i], Cap: i % 3}
		g2, remap, err := mut.Apply(g)
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g2
		wg.Add(1)
		go func(i int, mut graph.Mutation, remap []graph.EdgeID) {
			defer wg.Done()
			plans[i], errs[i] = MutatePlan(parent, g, gs[i], dem, mut, remap, opt)
		}(i, mut, remap)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		cold, err := Compile(gs[i], dem, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansEqual(t, 0, i, plans[i], cold, 0, 0)
	}
}

// TestMutateGrowAfterShrinkWarmState: a cut certificate holds only under
// the capacities of the walk that made it. The chain shrinks each side
// link to zero and grows it back, one link after another, so every walk
// runs on the warm solver state the previous one handed down the chain.
// A certificate the shrink walk recorded rules out masks that the grown
// link carries again; were it kept, the grow walk would skip solves it
// must pay, and the step would stop matching its cold compile.
func TestMutateGrowAfterShrinkWarmState(t *testing.T) {
	const wantGraphs = 30
	opt := Options{}
	count := 0
	for seed := int64(0); count < wantGraphs && seed < 50*wantGraphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, dem, _ := plantBottleneck(rng, 3+rng.Intn(3), 4+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(3))
		parent, err := Compile(g, dem, opt)
		if err != nil || parent.ds == nil {
			continue
		}
		count++
		step := 0
		for side := 0; side < 2; side++ {
			for _, link := range parent.sideLinks[side] {
				orig := g.Edge(link).Cap
				for _, c := range []int{0, orig} {
					mut := graph.Mutation{Kind: graph.MutateCapacity, Link: link, Cap: c}
					g2, remap, err := mut.Apply(g)
					if err != nil {
						t.Fatalf("seed %d: %v: %v", seed, mut, err)
					}
					delta, err := MutatePlan(parent, g, g2, dem, mut, remap, opt)
					if err != nil {
						t.Fatalf("seed %d step %d: MutatePlan %v: %v", seed, step, mut, err)
					}
					cold, err := Compile(g2, dem, opt)
					if err != nil {
						t.Fatalf("seed %d step %d: cold compile: %v", seed, step, err)
					}
					assertPlansEqual(t, seed, step, delta, cold, 0, 0)
					g, parent = g2, delta
					step++
				}
			}
		}
	}
	if count < wantGraphs {
		t.Fatalf("corpus produced only %d usable graphs, want ≥ %d", count, wantGraphs)
	}
}
