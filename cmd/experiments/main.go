// Command experiments regenerates every table and figure of the paper
// (Fujita, IPDPSW 2017) plus the ablations listed in DESIGN.md §5, and
// prints the results as text tables. EXPERIMENTS.md records one run.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E7    # one experiment
//	experiments -run E1,E2,A3
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/chain"
	"flowrel/internal/churn"
	"flowrel/internal/core"
	"flowrel/internal/graph"
	"flowrel/internal/mincut"
	"flowrel/internal/multicast"
	"flowrel/internal/overlay"
	"flowrel/internal/poly"
	"flowrel/internal/reduce"
	"flowrel/internal/reliability"
	"flowrel/internal/sim"
	"flowrel/internal/srlg"
	"flowrel/internal/stats"
	"flowrel/internal/subset"
)

var (
	runFlag     = flag.String("run", "all", "comma-separated experiment ids (E1..E17, A3..A8) or 'all'")
	timeoutFlag = flag.Duration("timeout", 0, "soft deadline for the whole run; experiments past it are skipped with a note")
	cfgsFlag    = flag.Uint64("max-configs", 0, "extra budget row for the A7 anytime ablation")
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	flag.Parse()
	all := []experiment{
		{"E1", "Fig. 1 — naive enumeration of failure configurations", e1},
		{"E2", "Fig. 2 + Eq. 1 — bridge decomposition", e2},
		{"E3", "Example 1 — assignment set for d=5, caps (3,3,3)", e3},
		{"E4", "Fig. 4/5 + Example 3 — two bottleneck links", e4},
		{"E5", "Example 4/5 — support classification", e5},
		{"E6", "Example 6 / Table I — procedure ACCUMULATION", e6},
		{"E7", "Headline claim — naive 2^|E| vs proposed 2^{α|E|}", e7},
		{"E8", "§III-C cost model — |D|·2^{|E_side|} realization checks", e8},
		{"E9", "§I–II motivation — single tree vs multiple trees", e9},
		{"E10", "Exact reliability vs streaming simulation", e10},
		{"E11", "Extension — chain decomposition over r cuts", e11},
		{"E12", "Extension — multicast: serving every subscriber at once", e12},
		{"E13", "Extension — peer churn: trees vs meshes under node failures", e13},
		{"E14", "Extension — the reliability polynomial R(p)", e14},
		{"E15", "Extension — shared-risk groups on the bottleneck links", e15},
		{"E16", "Extension — Birnbaum importance finds the bottleneck links", e16},
		{"E17", "Extension — renewal dynamics: availability vs static reliability", e17},
		{"A3", "Ablation — exact engines compared", a3},
		{"A4", "Ablation — Monte Carlo convergence", a4},
		{"A5", "Ablation — exact reductions as preprocessing", a5},
		{"A6", "Ablation — most-probable-states bounds convergence", a6},
		{"A7", "Ablation — anytime budgets: certified intervals from interrupted runs", a7},
		{"A8", "Ablation — plan reuse: compile once, sweep as probability evaluations", a8},
	}
	want := map[string]bool{}
	if *runFlag != "all" {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	var deadline time.Time
	if *timeoutFlag > 0 {
		deadline = time.Now().Add(*timeoutFlag)
	}
	ran := 0
	for _, ex := range all {
		if *runFlag != "all" && !want[ex.id] {
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Printf("\n=== %s: %s === SKIPPED (deadline %v passed)\n", ex.id, ex.title, *timeoutFlag)
			ran++
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", ex.id, ex.title)
		ex.run()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched -run %q\n", *runFlag)
		os.Exit(1)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// e1 reproduces Figure 1: enumerate every failure configuration of a small
// graph, test each with a max-flow computation, and sum the admitting
// probabilities. Cross-checked against exact rational arithmetic.
func e1() {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	res := must(reliability.Naive(o.G, dem, reliability.Options{}))
	exact := must(reliability.NaiveExact(o.G, dem))
	ef, _ := exact.Float64()
	fmt.Printf("graph: %d links → %d configurations examined\n", o.G.NumEdges(), res.Stats.Configs)
	fmt.Printf("admitting configurations: %d\n", res.Stats.Admitting)
	fmt.Printf("reliability (float)     : %.12f\n", res.Reliability)
	fmt.Printf("reliability (exact)     : %.12f  (%s)\n", ef, exact.RatString())
	fmt.Printf("agreement               : %.2e\n", abs(res.Reliability-ef))
}

// e2 reproduces Figure 2 / Equation 1: on a graph with a bridge e',
// r = r(G_s) · (1-p(e')) · r(G_t) equals the whole-graph reliability.
func e2() {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	bt := must(mincut.Split(o.G, dem.S, dem.T, o.Bottleneck))
	rs := must(reliability.Naive(bt.Gs.G, graph.Demand{S: bt.Gs.NodeOf[dem.S], T: bt.XS[0], D: dem.D}, reliability.Options{}))
	rt := must(reliability.Naive(bt.Gt.G, graph.Demand{S: bt.YT[0], T: bt.Gt.NodeOf[dem.T], D: dem.D}, reliability.Options{}))
	pe := o.G.Edge(o.Bottleneck[0]).PFail
	eq1 := rs.Reliability * (1 - pe) * rt.Reliability
	whole := must(reliability.Naive(o.G, dem, reliability.Options{}))
	coreRes := must(core.Reliability(o.G, dem, core.Options{}))
	fmt.Printf("r(G_s)            = %.12f   (%d links)\n", rs.Reliability, bt.Gs.G.NumEdges())
	fmt.Printf("1 - p(e')         = %.12f\n", 1-pe)
	fmt.Printf("r(G_t)            = %.12f   (%d links)\n", rt.Reliability, bt.Gt.G.NumEdges())
	fmt.Printf("Eq. 1 product     = %.12f\n", eq1)
	fmt.Printf("naive whole graph = %.12f\n", whole.Reliability)
	fmt.Printf("core (k=1)        = %.12f\n", coreRes.Reliability)
	fmt.Printf("max deviation     = %.2e\n", max3dev(eq1, whole.Reliability, coreRes.Reliability))
}

// e3 reproduces Example 1: the 12 assignments of d=5 sub-streams to three
// bottleneck links of capacity 3.
func e3() {
	ds := must(assign.Enumerate([]int{3, 3, 3}, 5))
	fmt.Printf("|D| = %d (paper: 12)\n", len(ds))
	var parts []string
	for _, a := range ds {
		parts = append(parts, a.String())
	}
	fmt.Println("D =", strings.Join(parts, ", "))
}

// e4 reproduces Figure 4/5 and Example 3: the two-bottleneck graph, the
// assignment sets realized by three G_s failure configurations, and why a
// plain Eq. 1-style product is wrong when k ≥ 2.
func e4() {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	res := must(core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck}))
	naive := must(reliability.Naive(o.G, dem, reliability.Options{}))
	fmt.Printf("graph: %d links, bottleneck %v (capacities 2, 2), demand d=2\n", o.G.NumEdges(), o.Bottleneck)
	var parts []string
	for _, a := range res.Assignments {
		parts = append(parts, a.String())
	}
	fmt.Println("D =", strings.Join(parts, ", "), " (paper: (2,0), (1,1), (0,2))")
	fmt.Println("Fig. 5 configurations of G_s and the assignment sets they realize:")
	for i, cfg := range overlay.Figure4Configs() {
		fmt.Printf("  (%c) alive G_s links %v → realizes {%s}\n", 'a'+i, cfg.Alive, strings.Join(cfg.Realizes, ", "))
	}
	// The naive product r(G_s for d)·P(cut up)·r(G_t for d) ignores the
	// assignment structure and is wrong:
	bt := must(mincut.Split(o.G, dem.S, dem.T, o.Bottleneck))
	rs := must(reliability.Naive(bt.Gs.G, graph.Demand{S: bt.Gs.NodeOf[dem.S], T: bt.XS[0], D: 1}, reliability.Options{}))
	_ = rs
	fmt.Printf("correct (ACCUMULATION): %.12f\n", res.Reliability)
	fmt.Printf("naive enumeration     : %.12f   (agreement %.2e)\n", naive.Reliability, abs(res.Reliability-naive.Reliability))
	wrong := wrongEq1Product(o, dem)
	fmt.Printf("wrong Eq.1-style      : %.12f   (error %+.4f — Example 3's warning)\n", wrong, wrong-res.Reliability)
}

// wrongEq1Product mimics applying Eq. 1 with k=2 as if the two sides and
// the cut were independent of the assignment choice: r(G_s admits d to
// {x1,x2} jointly)·P(both cut links up)·r(G_t absorbs d).
func wrongEq1Product(o *overlay.Overlay, dem graph.Demand) float64 {
	bt := must(mincut.Split(o.G, dem.S, dem.T, o.Bottleneck))
	// Probability G_s can push d=2 anywhere across the cut (both links up).
	gs := bt.Gs.G
	b := graph.NewBuilder()
	b.AddNodes(gs.NumNodes())
	for _, e := range gs.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, e.PFail)
	}
	super := b.AddNode()
	for _, x := range bt.XS {
		b.AddEdge(x, super, dem.D, 0)
	}
	gsx := b.MustBuild()
	rs := must(reliability.Naive(gsx, graph.Demand{S: bt.Gs.NodeOf[dem.S], T: super, D: dem.D}, reliability.Options{}))
	// Same for G_t.
	gt := bt.Gt.G
	b2 := graph.NewBuilder()
	b2.AddNodes(gt.NumNodes())
	for _, e := range gt.Edges() {
		b2.AddEdge(e.U, e.V, e.Cap, e.PFail)
	}
	super2 := b2.AddNode()
	for _, y := range bt.YT {
		b2.AddEdge(super2, y, dem.D, 0)
	}
	gtx := b2.MustBuild()
	rt := must(reliability.Naive(gtx, graph.Demand{S: super2, T: bt.Gt.NodeOf[dem.T], D: dem.D}, reliability.Options{}))
	pUp := 1.0
	for _, eid := range o.Bottleneck {
		pUp *= 1 - o.G.Edge(eid).PFail
	}
	return rs.Reliability * pUp * rt.Reliability
}

// e5 reproduces Examples 4 and 5: the support relation and the
// classification of an assignment family by supporting subsets.
func e5() {
	fmt.Println("Example 4 (k=3): subset {e1,e3} supports (2,0,1)?",
		assign.Assignment{2, 0, 1}.SupportedBy(0b101))
	fmt.Println("                 subset {e1,e3} supports (3,0,4)?",
		assign.Assignment{3, 0, 4}.SupportedBy(0b101))
	fmt.Println("                 subset {e1,e3} supports (1,1,0)?",
		assign.Assignment{1, 1, 0}.SupportedBy(0b101))

	ds := []assign.Assignment{{1, 2, 0}, {2, 1, 0}, {1, 1, 1}, {0, 2, 1}, {2, 0, 1}}
	fmt.Println("Example 5: D =", ds)
	names := []string{"{}", "{e1}", "{e2}", "{e1,e2}", "{e3}", "{e1,e3}", "{e2,e3}", "{e1,e2,e3}"}
	for eMask := uint64(0); eMask < 8; eMask++ {
		var class []string
		for _, a := range ds {
			if a.SupportedBy(eMask) {
				class = append(class, a.String())
			}
		}
		if len(class) > 0 {
			fmt.Printf("  D_%-10s = {%s}\n", names[eMask], strings.Join(class, ", "))
		}
	}
}

// e6 reproduces Example 6 / Table I: the ACCUMULATION procedure on the
// paper's abstract side arrays, with concrete configuration probabilities
// derived from two links per side.
func e6() {
	// Table I: realizations per configuration.
	//   G_s: c1 {b1}, c2 {b2}, c3 {b1,b2}, c4 {b2}
	//   G_t: c5 {b1,b2}, c6 {b2}, c7 {b1}, c8 {}
	sReal := []uint64{0b01, 0b10, 0b11, 0b10}
	tReal := []uint64{0b11, 0b10, 0b01, 0b00}
	// Concrete probabilities: two links per side with p = 0.2 and 0.3;
	// c1..c4 (and c5..c8) are the four on/off configurations.
	p1, p2 := 0.2, 0.3
	probs := []float64{p1 * p2, (1 - p1) * p2, p1 * (1 - p2), (1 - p1) * (1 - p2)}

	agg := func(real []uint64) []float64 {
		q := make([]float64, 4)
		for i, rm := range real {
			q[rm] += probs[i]
		}
		subset.SupersetZeta(q, 2)
		return q
	}
	qs := agg(sReal)
	qt := agg(tReal)
	pb1 := qs[0b01] * qt[0b01]
	pb2 := qs[0b10] * qt[0b10]
	pb12 := qs[0b11] * qt[0b11]
	r := pb1 + pb2 - pb12
	fmt.Println("Table I realizations: G_s c1..c4 → {b1},{b2},{b1,b2},{b2}; G_t c5..c8 → {b1,b2},{b2},{b1},{}")
	fmt.Printf("p(c1..c4) = p(c5..c8) = %.3f %.3f %.3f %.3f\n", probs[0], probs[1], probs[2], probs[3])
	fmt.Printf("p_{b1}      = (p(c1)+p(c3))·(p(c5)+p(c7)) = %.6f\n", pb1)
	fmt.Printf("p_{b2}      = (p(c2)+p(c3)+p(c4))·(p(c5)+p(c6)) = %.6f\n", pb2)
	fmt.Printf("p_{b1,b2}   = p(c3)·p(c5) = %.6f\n", pb12)
	fmt.Printf("r_{E''}     = p_{b1} + p_{b2} - p_{b1,b2} = %.6f  (inclusion–exclusion)\n", r)
	// Check the closed forms the paper states.
	wantPb1 := (probs[0] + probs[2]) * (probs[0] + probs[2])
	wantPb2 := (probs[1] + probs[2] + probs[3]) * (probs[0] + probs[1])
	wantPb12 := probs[2] * probs[0]
	fmt.Printf("closed-form check: |Δ| = %.2e, %.2e, %.2e\n",
		abs(pb1-wantPb1), abs(pb2-wantPb2), abs(pb12-wantPb12))
}

// e7 measures the headline claim: runtime of naive 2^{|E|} enumeration vs
// the proposed 2^{α|E|} decomposition on clustered overlays of growing
// size with a 2-link bottleneck (α ≈ 1/2).
func e7() {
	fmt.Printf("%-6s %-6s %-4s %-6s %-8s %-12s %-12s %-10s %-12s\n",
		"|E|", "alpha", "k", "α|E|", "on-path", "t_naive", "t_core", "speedup", "2^((1-α)|E|)")
	for _, side := range []int{4, 5, 6, 7, 8, 9, 10, 11} {
		o, err := overlay.Clustered(side, side+3, 2, 2, 2, 0.1, int64(side))
		if err != nil {
			fmt.Println("  generation failed:", err)
			continue
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		m := o.G.NumEdges()

		t0 := time.Now()
		coreRes, err := core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck})
		if err != nil {
			fmt.Printf("%-6d core failed: %v\n", m, err)
			continue
		}
		tCore := time.Since(t0)

		tNaiveS, speedup := "-", "-"
		if m <= 26 {
			t1 := time.Now()
			naive, err := reliability.Naive(o.G, dem, reliability.Options{})
			tNaive := time.Since(t1)
			if err == nil {
				if abs(naive.Reliability-coreRes.Reliability) > 1e-9 {
					fmt.Printf("%-6d MISMATCH core %.12f naive %.12f\n", m, coreRes.Reliability, naive.Reliability)
					continue
				}
				tNaiveS = tNaive.Round(time.Microsecond).String()
				speedup = fmt.Sprintf("%.1fx", float64(tNaive)/float64(tCore))
			}
		}
		pred := pow2((1 - coreRes.Alpha) * float64(m))
		onPath := fmt.Sprintf("%d+%d", coreRes.Stats.OnPathLinks[0], coreRes.Stats.OnPathLinks[1])
		fmt.Printf("%-6d %-6.3f %-4d %-6d %-8s %-12s %-12s %-10s %-12.0f\n",
			m, coreRes.Alpha, coreRes.K, max(coreRes.SideEdges[0], coreRes.SideEdges[1]), onPath,
			tNaiveS, tCore.Round(time.Microsecond), speedup, pred)
	}
	fmt.Println("(t_naive omitted beyond |E|=26; the core column keeps growing only with the larger side)")
	fmt.Println("(α|E| is the paper's exponent, the larger side's link count; on-path counts each side's links")
	fmt.Println(" that lie on a terminal–cut path, the only ones the side walk decides)")
}

// e8 verifies the §III-C cost model: the number of realization checks is
// exactly |D|·(2^{|E_s|} + 2^{|E_t|}).
func e8() {
	fmt.Printf("%-8s %-6s %-8s %-8s %-14s %-14s %-8s\n", "|E|", "|D|", "|E_s|", "|E_t|", "checks", "formula", "match")
	for seed := int64(1); seed <= 5; seed++ {
		o, err := overlay.Clustered(4+int(seed), 6+int(seed), 2, 2, 2, 0.1, seed)
		if err != nil {
			continue
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		res, err := core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck})
		if err != nil {
			continue
		}
		formula := int64(len(res.Assignments)) * int64(res.Stats.SideConfigs[0]+res.Stats.SideConfigs[1])
		fmt.Printf("%-8d %-6d %-8d %-8d %-14d %-14d %-8v\n",
			o.G.NumEdges(), len(res.Assignments), res.SideEdges[0], res.SideEdges[1],
			res.Stats.RealizationChecks, formula, res.Stats.RealizationChecks == formula)
	}
}

// e9 quantifies the §I–II motivation for multiple-tree delivery: in a
// single tree a failure on the path loses the whole stream, while with
// interior-disjoint stripes each failure loses one sub-stream — graceful
// degradation. P(≥ j sub-streams) is exactly the flow reliability with
// demand j, so every column is an exact computation.
func e9() {
	const p = 0.05
	fmt.Printf("%-26s %-4s %-12s %-14s %-12s\n", "overlay", "d", "P(full)", "P(≥ half)", "E[fraction]")

	report := func(name string, g *graph.Graph, s, t graph.NodeID, d int) {
		pFull := must(reliability.Factoring(g, graph.Demand{S: s, T: t, D: d}, reliability.Options{})).Reliability
		half := (d + 1) / 2
		pHalf := must(reliability.Factoring(g, graph.Demand{S: s, T: t, D: half}, reliability.Options{})).Reliability
		// E[min(F,d)]/d = (1/d)·Σ_{j=1..d} P(F ≥ j).
		frac := 0.0
		for j := 1; j <= d; j++ {
			frac += must(reliability.Factoring(g, graph.Demand{S: s, T: t, D: j}, reliability.Options{})).Reliability
		}
		frac /= float64(d)
		fmt.Printf("%-26s %-4d %-12.6f %-14.6f %-12.6f\n", name, d, pFull, pHalf, frac)
	}

	single := must(overlay.Tree(2, 3, 2, p))
	deep := single.Peers[len(single.Peers)-1]
	report("single tree (depth 3)", single.G, single.Source, deep, 2)
	for _, trees := range []int{2, 3} {
		o := must(overlay.MultiTree(12, trees, 2, p))
		peer := o.Peers[len(o.Peers)-1]
		report(fmt.Sprintf("multi-tree (%d stripes)", trees), o.G, o.Source, peer, trees)
	}
	fmt.Println("(single tree is all-or-nothing: P(full) = P(≥half) = E[fraction];")
	fmt.Println(" stripes degrade gracefully: losing a link costs one sub-stream, not the stream)")
}

// e10 cross-validates the exact engines against the streaming simulator.
func e10() {
	fmt.Printf("%-22s %-12s %-12s %-10s %-10s\n", "overlay", "exact", "simulated", "stderr", "|Δ|/σ")
	type inst struct {
		name string
		g    *graph.Graph
		dem  graph.Demand
	}
	f2 := overlay.Figure2()
	f4 := overlay.Figure4()
	cl := must(overlay.Clustered(4, 6, 2, 2, 2, 0.15, 3))
	insts := []inst{
		{"figure2 (d=1)", f2.G, f2.Demand(f2.Peers[len(f2.Peers)-1])},
		{"figure4 (d=2)", f4.G, f4.Demand(f4.Peers[0])},
		{"clustered (d=2)", cl.G, cl.Demand(cl.Peers[len(cl.Peers)-1])},
	}
	for _, in := range insts {
		exact := must(reliability.Factoring(in.g, in.dem, reliability.Options{}))
		rep := must(sim.Run(in.g, in.dem, sim.Config{Sessions: 200000, Seed: 17}))
		sigma := rep.StdErr
		if sigma == 0 {
			sigma = 1e-12
		}
		fmt.Printf("%-22s %-12.6f %-12.6f %-10.6f %-10.2f\n",
			in.name, exact.Reliability, rep.DeliveryRate, rep.StdErr,
			abs(exact.Reliability-rep.DeliveryRate)/sigma)
	}
}

// e13 quantifies the §II claim that tree overlays are fragile under peer
// churn while redundant topologies tolerate it: the same peer set, the
// same churn probability, three overlays, exact reliabilities via the
// node-splitting transformation.
func e13() {
	const churnP = 0.05
	fmt.Printf("%-26s %-8s %-14s\n", "overlay (links perfect)", "demand", "P(deep peer served)")
	type inst struct {
		name string
		o    *overlay.Overlay
	}
	tree := must(overlay.Tree(2, 3, 1, 0))
	mt := must(overlay.MultiTree(14, 2, 2, 0))
	mesh := must(overlay.Mesh(14, 3, 2, 1, 0, 5))
	for _, in := range []inst{{"single tree (depth 3)", tree}, {"multi-tree (2 stripes)", mt}, {"mesh (in-degree 3)", mesh}} {
		o := in.o
		deep := o.Peers[len(o.Peers)-1]
		var peers []churn.Peer
		for _, p := range o.Peers {
			if p != deep { // the observed subscriber itself stays
				peers = append(peers, churn.Peer{Node: p, PFail: churnP})
			}
		}
		ci, err := churn.Transform(o.G, o.Demand(deep), peers)
		if err != nil {
			fmt.Printf("%-26s transform failed: %v\n", in.name, err)
			continue
		}
		res, err := reliability.Factoring(ci.G, ci.Demand, reliability.Options{})
		if err != nil {
			fmt.Printf("%-26s solve failed: %v\n", in.name, err)
			continue
		}
		fmt.Printf("%-26s d=%-6d %-14.6f\n", in.name, o.Substreams, res.Reliability)
	}
	fmt.Println("(5% peer churn, perfect links: the mesh's redundant feeds absorb churn that")
	fmt.Println(" costs the tree every ancestor on the path)")
}

// e14 computes the reliability polynomial of the Fig. 2 graph and sweeps
// the uniform link failure probability.
func e14() {
	o := overlay.Figure2()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	P, err := poly.Compute(o.G, dem, reliability.Options{})
	if err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Printf("N_i (admitting configurations by operational-link count): %v\n", P.Admitting)
	fmt.Printf("smallest admitting link set: %d links; smallest disconnecting set: %d link(s)\n",
		P.MinAdmittingLinks(), P.MinDisconnectingLinks())
	fmt.Printf("%-8s %-14s %-14s\n", "p", "R(p)", "naive check")
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		b := graph.NewBuilder()
		b.AddNodes(o.G.NumNodes())
		for _, e := range o.G.Edges() {
			b.AddEdge(e.U, e.V, e.Cap, p)
		}
		check := must(reliability.Naive(b.MustBuild(), dem, reliability.Options{}))
		fmt.Printf("%-8.2f %-14.8f %-14.8f\n", p, P.Eval(p), check.Reliability)
	}
}

// e15 puts the two cross-cluster links of a clustered overlay into one
// shared-risk group: correlation erases exactly the redundancy the second
// link was supposed to buy.
func e15() {
	o := must(overlay.Clustered(5, 8, 2, 1, 2, 0.05, 6))
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	base := must(reliability.Factoring(o.G, dem, reliability.Options{}))
	fmt.Printf("clustered overlay, 2 cross-cluster links, d=1; independent R = %.6f\n", base.Reliability)
	fmt.Printf("%-12s %-14s %-12s\n", "conduit p", "R (correlated)", "ΔR")
	for _, pc := range []float64{0.01, 0.05, 0.1, 0.2} {
		groups := []srlg.Group{{PFail: pc, Links: o.Bottleneck}}
		r, err := srlg.Reliability(o.G, dem, groups, nil)
		if err != nil {
			fmt.Println("failed:", err)
			return
		}
		fmt.Printf("%-12.2f %-14.6f %+.6f\n", pc, r, r-base.Reliability)
	}
	fmt.Println("(both bottleneck links share a conduit: its failure probability subtracts")
	fmt.Println(" almost 1:1 from the reliability, regardless of per-link redundancy)")
}

// e16 ranks links by Birnbaum importance on a clustered overlay and
// relates the ranking to cut structure: single-link minimal cuts (bridges,
// RDown = 0) must top the list, members of small minimal cuts follow, and
// links on no small cut trail far behind — importance analysis rediscovers
// the bottleneck structure the decomposition exploits.
func e16() {
	o := must(overlay.Clustered(5, 8, 2, 1, 2, 0.1, 6))
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	imps := must(reliability.BirnbaumImportance(o.G, dem, reliability.Options{}))
	sort.Slice(imps, func(i, j int) bool { return imps[i].Birnbaum > imps[j].Birnbaum })

	// Smallest minimal cut each link belongs to (0 = none of size ≤ 2).
	cutSize := map[graph.EdgeID]int{}
	for _, cut := range mincut.EnumerateMinimal(o.G, dem.S, dem.T, 2) {
		for _, e := range cut {
			if cutSize[e] == 0 || len(cut) < cutSize[e] {
				cutSize[e] = len(cut)
			}
		}
	}
	planted := map[graph.EdgeID]bool{}
	for _, e := range o.Bottleneck {
		planted[e] = true
	}
	fmt.Printf("planted bottleneck links: %v\n", o.Bottleneck)
	fmt.Printf("%-6s %-8s %-12s %-12s %-14s %-8s\n", "rank", "link", "Birnbaum", "achievable", "min-cut size", "planted")
	for rank, imp := range imps {
		if rank >= 6 {
			break
		}
		cs := "-"
		if c := cutSize[imp.Link]; c > 0 {
			cs = fmt.Sprint(c)
		}
		fmt.Printf("%-6d %-8d %-12.6f %-12.6f %-14s %-8v\n",
			rank+1, imp.Link, imp.Birnbaum, imp.Improvement, cs, planted[imp.Link])
	}
	// Structural check: every top-ranked link lies on a small minimal cut,
	// and bridges (cut size 1) dominate everything else.
	bad := false
	for _, imp := range imps[:4] {
		if cutSize[imp.Link] == 0 {
			bad = true
		}
	}
	if bad {
		fmt.Println("NOTE: a link on no small cut reached the top ranks — unexpected")
	} else {
		fmt.Println("(all top-ranked links lie on minimal cuts of ≤ 2 links; bridges rank first,")
		fmt.Println(" then the planted 2-link bottleneck — the operator's hardening priority list)")
	}
}

// e17 runs the event-driven alternating-renewal simulator on the Fig. 2
// graph and checks the renewal-reward identity: long-run availability =
// static reliability at p = MTTR/(MTBF+MTTR) — plus the dynamics (outage
// rate and duration) that no static number carries.
func e17() {
	const mtbf, mttr = 20.0, 3.0
	p := sim.PFailFromMTBF(mtbf, mttr)
	o := overlay.Figure2()
	b := graph.NewBuilder()
	b.AddNodes(o.G.NumNodes())
	for _, e := range o.G.Edges() {
		b.AddEdge(e.U, e.V, e.Cap, p)
	}
	g := b.MustBuild()
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	static := must(reliability.Naive(g, dem, reliability.Options{}))
	fmt.Printf("MTBF=%.0f MTTR=%.0f → steady-state p=%.4f; static reliability %.6f\n",
		mtbf, mttr, p, static.Reliability)
	fmt.Printf("%-10s %-14s %-16s %-12s %-10s\n", "horizon", "availability", "interruptions", "mean outage", "|Δ|")
	for _, horizon := range []float64{1e3, 1e4, 1e5, 1e6} {
		rep, err := sim.Continuous(g, dem, sim.ContinuousConfig{
			Dynamics: sim.UniformDynamics(g, mtbf, mttr),
			Horizon:  horizon,
			Seed:     7,
		})
		if err != nil {
			fmt.Println("failed:", err)
			return
		}
		fmt.Printf("%-10.0f %-14.6f %-16d %-12.3f %-10.4f\n",
			horizon, rep.Availability, rep.Interruptions, rep.MeanOutage,
			abs(rep.Availability-static.Reliability))
	}
	fmt.Println("(availability converges to the static value — renewal-reward — while the")
	fmt.Println(" outage rate and duration are information the static number cannot give)")
}

// a3 compares all exact engines on one instance.
func a3() {
	o := must(overlay.Clustered(7, 11, 2, 2, 2, 0.1, 5))
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	fmt.Printf("instance: %d links, demand d=%d\n", o.G.NumEdges(), dem.D)
	fmt.Printf("%-12s %-16s %-12s %-14s\n", "engine", "reliability", "time", "configs")
	type row struct {
		name string
		r    float64
		t    time.Duration
		c    uint64
	}
	var rows []row
	t0 := time.Now()
	nv := must(reliability.Naive(o.G, dem, reliability.Options{}))
	rows = append(rows, row{"naive", nv.Reliability, time.Since(t0), nv.Stats.Configs})
	t0 = time.Now()
	fc := must(reliability.Factoring(o.G, dem, reliability.Options{}))
	rows = append(rows, row{"factoring", fc.Reliability, time.Since(t0), fc.Stats.Configs})
	t0 = time.Now()
	cr := must(core.Reliability(o.G, dem, core.Options{Bottleneck: o.Bottleneck}))
	rows = append(rows, row{"core", cr.Reliability, time.Since(t0), cr.Stats.SideConfigs[0] + cr.Stats.SideConfigs[1]})
	sort.Slice(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	for _, r := range rows {
		fmt.Printf("%-12s %-16.12f %-12s %-14d\n", r.name, r.r, r.t.Round(time.Microsecond), r.c)
	}
}

// a4 shows Monte Carlo convergence toward the exact value.
func a4() {
	o := overlay.Figure4()
	dem := o.Demand(o.Peers[0])
	exact := must(reliability.Naive(o.G, dem, reliability.Options{})).Reliability
	fmt.Printf("exact = %.6f\n", exact)
	fmt.Printf("%-10s %-12s %-10s %-8s\n", "samples", "estimate", "stderr", "|Δ|/σ")
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		est := must(reliability.MonteCarlo(o.G, dem, n, 5, reliability.Options{}))
		sigma := est.StdErr
		if sigma == 0 {
			sigma = 1e-12
		}
		fmt.Printf("%-10d %-12.6f %-10.6f %-8.2f\n", n, est.Reliability, est.StdErr, abs(est.Reliability-exact)/sigma)
	}
}

// e11 measures the chain-decomposition extension: on a chain of b blocks,
// the single-cut algorithm must enumerate everything on one side of its
// best cut (≈ half the graph), while the chain solver pays only the sum
// of per-block enumerations. The chain's max-flow calls, in total and in
// the middle segments, are read from its segment/i phase events.
func e11() {
	fmt.Printf("%-8s %-6s %-8s %-12s %-12s %-12s %-10s %-10s %-14s\n",
		"blocks", "|E|", "cuts", "t_naive", "t_core", "t_chain", "mf_chain", "mf_middle", "agreement")
	for _, blocks := range []int{2, 3, 4, 5} {
		o, cuts, err := overlay.Chain(blocks, 3, 2, 2, 2, 2, 0.1, int64(blocks))
		if err != nil {
			fmt.Println("  generation failed:", err)
			continue
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		m := o.G.NumEdges()

		ctl := anytime.New(context.Background(), anytime.Budget{})
		rec := stats.NewRecorder()
		ctl.SetTracer(rec)
		t0 := time.Now()
		ch, err := chain.Solve(o.G, dem, cuts, chain.Options{Ctl: ctl})
		if err != nil {
			fmt.Printf("%-8d chain failed: %v\n", blocks, err)
			continue
		}
		tChain := time.Since(t0)
		var calls, middle int64
		for _, p := range rec.Phases() {
			calls += p.MaxFlowCalls
			if p.Phase != "segment/0" && p.Phase != fmt.Sprintf("segment/%d", len(ch.Cuts)) {
				middle += p.MaxFlowCalls
			}
		}

		tCoreS := "-"
		agree := true
		t1 := time.Now()
		cr, err := core.Reliability(o.G, dem, core.Options{Bottleneck: cuts[0], MaxSideEdges: 26})
		if err == nil {
			tCoreS = time.Since(t1).Round(time.Microsecond).String()
			agree = agree && abs(cr.Reliability-ch.Reliability) < 1e-9
		}

		tNaiveS := "-"
		if m <= 24 {
			t2 := time.Now()
			nv, err := reliability.Naive(o.G, dem, reliability.Options{})
			if err == nil {
				tNaiveS = time.Since(t2).Round(time.Microsecond).String()
				agree = agree && abs(nv.Reliability-ch.Reliability) < 1e-9
			}
		}
		fmt.Printf("%-8d %-6d %-8d %-12s %-12s %-12s %-10d %-10d %-14v\n",
			blocks, m, len(ch.Cuts), tNaiveS, tCoreS, tChain.Round(time.Microsecond), calls, middle, agree)
	}
	fmt.Println("(core uses the first planted cut: one side still holds all remaining blocks,")
	fmt.Println(" so its cost grows as 2^{(b-1)/b·|E|}; the chain solver's as b·2^{|E|/b})")
}

// e12 measures service-level reliability: the probability that every
// subscriber receives the full stream, versus the weakest single
// subscriber's marginal (Edmonds' theorem makes the per-target max-flow
// criterion exact for replicated push delivery).
func e12() {
	fmt.Printf("%-26s %-6s %-14s %-14s %-14s\n", "overlay", "d", "all-receive", "min marginal", "mean marginal")
	type inst struct {
		name string
		o    *overlay.Overlay
	}
	tree := must(overlay.Tree(2, 3, 1, 0.03))
	mt2 := must(overlay.MultiTree(8, 2, 2, 0.03))
	// d=1 for the mesh: its first peer has a single feed link, so d=2
	// multicast is structurally impossible there.
	mesh := must(overlay.Mesh(8, 2, 2, 1, 0.03, 7))
	for _, in := range []inst{{"single tree (14 peers)", tree}, {"multi-tree (8 peers)", mt2}, {"mesh (8 peers)", mesh}} {
		d := in.o.Substreams
		all, err := multicast.Naive(in.o.G, in.o.Source, in.o.Peers, d, reliability.Options{})
		if err != nil {
			fmt.Printf("%-26s failed: %v\n", in.name, err)
			continue
		}
		per, err := multicast.PerTarget(in.o.G, in.o.Source, in.o.Peers, d, reliability.Options{})
		if err != nil {
			continue
		}
		minP, sum := 1.0, 0.0
		for _, r := range per {
			if r < minP {
				minP = r
			}
			sum += r
		}
		fmt.Printf("%-26s %-6d %-14.6f %-14.6f %-14.6f\n",
			in.name, d, all.Reliability, minP, sum/float64(len(per)))
	}
	fmt.Println("(per-subscriber numbers flatter the system: serving *everyone* at once is")
	fmt.Println(" strictly harder than serving the weakest subscriber)")
}

// a5 quantifies the exact-reduction preprocessing.
func a5() {
	fmt.Printf("%-26s %-10s %-10s %-12s %-12s %-10s\n",
		"instance", "|E| before", "|E| after", "t_direct", "t_reduced", "agreement")
	type inst struct {
		name string
		g    *graph.Graph
		dem  graph.Demand
	}
	tree := must(overlay.Tree(2, 4, 1, 0.05))
	mt := must(overlay.MultiTree(10, 2, 2, 0.05))
	cl := must(overlay.Clustered(5, 8, 2, 2, 2, 0.1, 6))
	insts := []inst{
		{"tree depth 4 (one peer)", tree.G, tree.Demand(tree.Peers[len(tree.Peers)-1])},
		{"multi-tree 10 peers", mt.G, mt.Demand(mt.Peers[len(mt.Peers)-1])},
		{"clustered", cl.G, cl.Demand(cl.Peers[len(cl.Peers)-1])},
	}
	for _, in := range insts {
		red, err := reduce.Apply(in.g, in.dem)
		if err != nil {
			fmt.Println("  reduce failed:", err)
			continue
		}
		t0 := time.Now()
		direct, err := reliability.Factoring(in.g, in.dem, reliability.Options{})
		if err != nil {
			continue
		}
		tD := time.Since(t0)
		t1 := time.Now()
		reduced, err := reliability.Factoring(red.G, red.Demand, reliability.Options{})
		if err != nil {
			continue
		}
		tR := time.Since(t1)
		fmt.Printf("%-26s %-10d %-10d %-12s %-12s %-10v\n",
			in.name, in.g.NumEdges(), red.G.NumEdges(),
			tD.Round(time.Microsecond), tR.Round(time.Microsecond),
			abs(direct.Reliability-reduced.Reliability) < 1e-9)
	}
}

// a6 shows most-probable-states bounds collapsing with the failure budget.
func a6() {
	o := must(overlay.Clustered(6, 10, 2, 2, 2, 0.05, 9))
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	exact := must(reliability.Factoring(o.G, dem, reliability.Options{}))
	fmt.Printf("instance: %d links, p=0.05/link; exact = %.8f\n", o.G.NumEdges(), exact.Reliability)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s\n", "budget", "lower", "upper", "width", "configs")
	for _, l := range []int{0, 1, 2, 3, 4} {
		t0 := time.Now()
		bd, err := reliability.MostProbableStates(o.G, dem, l)
		if err != nil {
			continue
		}
		_ = t0
		configs := int64(1)
		for i, c := 1, int64(1); i <= l; i++ {
			c = c * int64(o.G.NumEdges()-i+1) / int64(i)
			configs += c
		}
		fmt.Printf("%-8d %-12.8f %-12.8f %-12.2e %-12d\n", l, bd.Lower, bd.Upper, bd.Upper-bd.Lower, configs)
		if bd.Lower > exact.Reliability+1e-9 || exact.Reliability > bd.Upper+1e-9 {
			fmt.Println("  BOUNDS VIOLATED")
		}
	}
	fmt.Println("(the interval width is exactly the probability of deeper failure patterns,")
	fmt.Println(" so a handful of layers certify many digits on reliable networks)")
}

// a7 demonstrates the anytime layer: the same instance solved by the
// factoring engine under shrinking configuration budgets. Every
// interrupted run certifies an interval [lo, hi] from the branch mass it
// proved admitting and failing; the interval narrows monotonically with
// the budget and collapses to the exact value when the budget suffices.
func a7() {
	o := must(overlay.Clustered(12, 22, 2, 2, 2, 0.1, 9))
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	exact := must(reliability.Factoring(o.G, dem, reliability.Options{}))
	fmt.Printf("instance: %d links, p=0.1/link; exact = %.8f (%d factoring configs)\n",
		o.G.NumEdges(), exact.Reliability, exact.Stats.Configs)
	budgets := []uint64{64, 128, 256, 512, 768, 0}
	if *cfgsFlag > 0 {
		budgets = append([]uint64{*cfgsFlag}, budgets...)
	}
	fmt.Printf("%-10s %-12s %-12s %-12s %s\n", "budget", "lower", "upper", "width", "stopped by")
	for _, b := range budgets {
		ctl := anytime.New(context.Background(), anytime.Budget{MaxConfigs: b})
		res, err := reliability.Factoring(o.G, dem, reliability.Options{Parallelism: 1, Ctl: ctl})
		if err != nil {
			fmt.Printf("%-10d ERROR %v\n", b, err)
			continue
		}
		label, reason := fmt.Sprintf("%d", b), "—"
		if b == 0 {
			label = "∞"
		}
		if res.Partial {
			reason = res.Reason
		}
		fmt.Printf("%-10s %-12.8f %-12.8f %-12.2e %s\n", label, res.Lo, res.Hi, res.Hi-res.Lo, reason)
		if res.Lo > exact.Reliability+1e-9 || exact.Reliability > res.Hi+1e-9 {
			fmt.Println("  BOUNDS VIOLATED")
		}
	}
	fmt.Println("(an interrupted run keeps everything it proved: the gap is exactly the")
	fmt.Println(" unexplored branch mass, so budget doublings narrow the interval for free)")
}

// a8 is the plan-reuse ablation: the compile/evaluate split on the E7
// instance family. A 20-point probability sweep pays the O(2^{α|E|})
// side-array construction once as a compiled plan, then answers every
// point as a pure probability evaluation; the per-point column rebuilds
// the instance and pays a full solve at each scale factor.
func a8() {
	const points = 20
	fmt.Printf("%-6s %-12s %-12s %-14s %-14s %-8s\n",
		"|E|", "t_compile", "t_eval", "sweep20_cold", "sweep20_plan", "speedup")
	for _, side := range []int{4, 6, 8, 10} {
		o, err := overlay.Clustered(side, side+3, 2, 2, 2, 0.1, int64(side))
		if err != nil {
			fmt.Println("  generation failed:", err)
			continue
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])

		t0 := time.Now()
		plan, err := core.Compile(o.G, dem, core.Options{Bottleneck: o.Bottleneck})
		if err != nil {
			fmt.Printf("%-6d compile failed: %v\n", o.G.NumEdges(), err)
			continue
		}
		tCompile := time.Since(t0)

		base := plan.BasePFail()
		scales := make([]float64, points)
		scenarios := make([][]float64, points)
		for i := range scales {
			scales[i] = 2 * float64(i) / float64(points-1)
			pf := make([]float64, len(base))
			for j := range pf {
				pf[j] = math.Min(base[j]*scales[i], 0.999999)
			}
			scenarios[i] = pf
		}

		t1 := time.Now()
		planned := make([]float64, points)
		for i, pf := range scenarios {
			r, err := plan.Eval(pf)
			if err != nil {
				fmt.Printf("%-6d eval failed: %v\n", o.G.NumEdges(), err)
				continue
			}
			planned[i] = r
		}
		tPlanned := time.Since(t1)

		t2 := time.Now()
		mismatch := false
		for i, sc := range scales {
			b := graph.NewBuilder()
			for n := 0; n < o.G.NumNodes(); n++ {
				b.AddNamedNode(o.G.NodeName(graph.NodeID(n)))
			}
			for _, e := range o.G.Edges() {
				b.AddEdge(e.U, e.V, e.Cap, math.Min(e.PFail*sc, 0.999999))
			}
			res, err := core.Reliability(b.MustBuild(), dem, core.Options{Bottleneck: o.Bottleneck})
			if err != nil {
				fmt.Printf("%-6d cold solve failed: %v\n", o.G.NumEdges(), err)
				mismatch = true
				break
			}
			if abs(res.Reliability-planned[i]) > 1e-12 {
				fmt.Printf("%-6d MISMATCH at scale %.2f: plan %.15f cold %.15f\n",
					o.G.NumEdges(), sc, planned[i], res.Reliability)
				mismatch = true
			}
		}
		tCold := time.Since(t2)
		if mismatch {
			continue
		}
		fmt.Printf("%-6d %-12s %-12s %-14s %-14s %-8s\n",
			o.G.NumEdges(), tCompile.Round(time.Microsecond),
			(tPlanned / points).Round(time.Microsecond),
			tCold.Round(time.Microsecond),
			(tCompile + tPlanned).Round(time.Microsecond),
			fmt.Sprintf("%.1fx", float64(tCold)/float64(tCompile+tPlanned)))
	}
	fmt.Println("(every sweep point agrees with its cold solve to 1e-12; the planned")
	fmt.Println(" column pays the side arrays once and evaluates in microseconds after)")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max3dev(a, b, c float64) float64 {
	d1 := abs(a - b)
	if d2 := abs(a - c); d2 > d1 {
		d1 = d2
	}
	if d3 := abs(b - c); d3 > d1 {
		d1 = d3
	}
	return d1
}

func pow2(x float64) float64 { return math.Pow(2, x) }
