package flowrel

import (
	"math"
	"strings"
	"testing"

	"flowrel/internal/testutil"
)

func figure2Demand() (*Graph, Demand) {
	o := Figure2Overlay()
	return o.G, o.Demand(o.Peers[len(o.Peers)-1])
}

func TestAllEnginesAgree(t *testing.T) {
	g, dem := figure2Demand()
	exact, err := Exact(g, dem)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Float64()
	for _, eng := range []Engine{EngineAuto, EngineCore, EngineNaive, EngineFactoring} {
		rep, err := Compute(g, dem, Config{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if math.Abs(rep.Reliability-want) > 1e-9 {
			t.Fatalf("%v: %.12f, want %.12f", eng, rep.Reliability, want)
		}
	}
	r, err := Reliability(g, dem)
	if err != nil || math.Abs(r-want) > 1e-9 {
		t.Fatalf("Reliability = %g, %v; want %g", r, err, want)
	}
}

func TestAutoUsesCoreOnBottleneckGraph(t *testing.T) {
	g, dem := figure2Demand()
	rep, err := Compute(g, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != EngineCore {
		t.Fatalf("auto picked %v, want core", rep.Engine)
	}
	if rep.K != 1 || !testutil.AlmostEqual(rep.Alpha, 4.0/9.0, 0) {
		t.Fatalf("K=%d alpha=%g", rep.K, rep.Alpha)
	}
}

func TestAutoFallsBackToFactoring(t *testing.T) {
	// K5-ish dense digraph: min cut between 0 and 4 exceeds MaxBottleneck 1.
	b := NewBuilder()
	n := b.AddNodes(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				b.AddEdge(n+NodeID(i), n+NodeID(j), 1, 0.2)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dem := Demand{S: 0, T: 4, D: 1}
	rep, err := Compute(g, dem, Config{MaxBottleneck: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != EngineFactoring {
		t.Fatalf("auto picked %v, want factoring", rep.Engine)
	}
	naive, err := Compute(g, dem, Config{Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Reliability-naive.Reliability) > 1e-9 {
		t.Fatalf("factoring %.12f vs naive %.12f", rep.Reliability, naive.Reliability)
	}
}

func TestEngineChain(t *testing.T) {
	o, _, err := ChainOverlay(3, 2, 1, 2, 2, 2, 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	rep, err := Compute(o.G, dem, Config{Engine: EngineChain, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != EngineChain {
		t.Fatalf("engine = %v", rep.Engine)
	}
	// The Report carries the segment walks' work: the configurations and
	// max-flow calls their phase events report, and the augmenting paths
	// those calls found.
	var configs uint64
	var calls int64
	for _, ph := range rep.Stats.Phases {
		if ph.Engine == "chain" {
			configs += ph.Configs
			calls += ph.MaxFlowCalls
		}
	}
	if rep.Configs == 0 || rep.Configs != configs || rep.MaxFlowCalls != calls || rep.Stats.AugmentingPaths == 0 {
		t.Fatalf("chain report: %d configurations, %d max-flow calls, %d augmenting paths; segment phases: %d configurations, %d calls",
			rep.Configs, rep.MaxFlowCalls, rep.Stats.AugmentingPaths, configs, calls)
	}
	naive, err := Compute(o.G, dem, Config{Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Reliability-naive.Reliability) > 1e-9 {
		t.Fatalf("chain %.12f vs naive %.12f", rep.Reliability, naive.Reliability)
	}
}

// TestAutoPrefersChainOverFactoring: when the single cut leaves a side too
// large but a cut sequence decomposes the graph, auto must pick the chain.
func TestAutoPrefersChainOverFactoring(t *testing.T) {
	o, _, err := ChainOverlay(5, 3, 2, 2, 2, 2, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	rep, err := Compute(o.G, dem, Config{MaxSideEdges: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != EngineChain {
		t.Fatalf("auto picked %v, want chain (sides exceed 10 links for any single cut)", rep.Engine)
	}
	fact, err := Compute(o.G, dem, Config{Engine: EngineFactoring})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Reliability-fact.Reliability) > 1e-9 {
		t.Fatalf("chain %.12f vs factoring %.12f", rep.Reliability, fact.Reliability)
	}
}

func TestComputeWithReduce(t *testing.T) {
	o, err := TreeOverlay(2, 3, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dem := o.Demand(o.Peers[len(o.Peers)-1])
	plain, err := Compute(o.G, dem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := Compute(o.G, dem, Config{Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Reliability-reduced.Reliability) > 1e-12 {
		t.Fatalf("Reduce changed the answer: %g vs %g", plain.Reliability, reduced.Reliability)
	}
	// Explicit bottleneck + Reduce must be rejected (IDs would dangle).
	if _, err := Compute(o.G, dem, Config{Reduce: true, Bottleneck: []EdgeID{0}}); err == nil {
		t.Fatal("Reduce with explicit Bottleneck accepted")
	}
}

func TestEngineString(t *testing.T) {
	names := map[Engine]string{
		EngineAuto: "auto", EngineCore: "core", EngineNaive: "naive",
		EngineFactoring: "factoring", EngineChain: "chain",
		Engine(42): "engine(42)",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
	if _, err := Compute(nil, Demand{}, Config{Engine: Engine(42)}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestFacadeMonteCarloAndBounds(t *testing.T) {
	g, dem := figure2Demand()
	want, err := Reliability(g, dem)
	if err != nil {
		t.Fatal(err)
	}
	est, err := MonteCarlo(g, dem, 50000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Reliability-want) > 5*est.StdErr+1e-9 {
		t.Fatalf("MC %g vs exact %g", est.Reliability, want)
	}
	bd, err := Bounds(g, dem, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Lower > want+1e-9 || want > bd.Upper+1e-9 {
		t.Fatalf("bounds [%g, %g] miss exact %g", bd.Lower, bd.Upper, want)
	}
}

func TestFacadeBottleneckHelpers(t *testing.T) {
	g, dem := figure2Demand()
	bt, err := FindBottleneck(g, dem.S, dem.T, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bt.K() != 1 {
		t.Fatalf("K = %d", bt.K())
	}
	bt2, err := SplitBottleneck(g, dem.S, dem.T, bt.Cut)
	if err != nil {
		t.Fatal(err)
	}
	if bt2.Alpha != bt.Alpha {
		t.Fatal("split mismatch")
	}
	cuts := MinCuts(g, dem.S, dem.T, 2)
	if len(cuts) == 0 {
		t.Fatal("no cuts enumerated")
	}
}

// TestBadBottleneckIsAnError hands every entry point that takes an
// explicit bottleneck a link set with an out-of-range or a repeated link:
// each call returns an error and none panics. The compiling calls differ
// in MaxSideEdges, so each has a plan-cache key of its own and none can
// wait on another's compile.
func TestBadBottleneckIsAnError(t *testing.T) {
	g, dem := figure2Demand()
	m := EdgeID(g.NumEdges())
	for _, cut := range [][]EdgeID{{m}, {-1}, {0, m + 5}, {0, 0}} {
		calls := []struct {
			name string
			call func() error
		}{
			{"SplitBottleneck", func() error {
				_, err := SplitBottleneck(g, dem.S, dem.T, cut)
				return err
			}},
			{"Compute (core)", func() error {
				_, err := Compute(g, dem, Config{Engine: EngineCore, Bottleneck: cut, MaxSideEdges: 20})
				return err
			}},
			{"Compute (auto)", func() error {
				_, err := Compute(g, dem, Config{Bottleneck: cut, MaxSideEdges: 19})
				return err
			}},
			{"CompilePlan", func() error {
				_, err := CompilePlan(g, dem, Config{Bottleneck: cut, MaxSideEdges: 18})
				return err
			}},
		}
		for _, c := range calls {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s with bottleneck %v panicked: %v", c.name, cut, r)
					}
				}()
				if err := c.call(); err == nil {
					t.Errorf("%s accepted bottleneck %v on %d links", c.name, cut, m)
				}
			}()
		}
	}
}

func TestFacadeOverlaysAndPaths(t *testing.T) {
	o, err := MultiTreeOverlay(6, 2, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dem := o.Demand(o.Peers[3])
	paths, err := DeliveryPaths(o.G, dem)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2 sub-streams", len(paths))
	}
	alive := make([]bool, o.G.NumEdges())
	for i := range alive {
		alive[i] = true
	}
	paths2, err := DeliveryPathsAlive(o.G, dem, alive)
	if err != nil || len(paths2) != 2 {
		t.Fatalf("alive paths = %d, %v", len(paths2), err)
	}

	tree, err := TreeOverlay(2, 2, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Peers) != 6 {
		t.Fatalf("tree peers = %d", len(tree.Peers))
	}
	mesh, err := MeshOverlay(8, 2, 2, 2, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.Peers) != 8 {
		t.Fatalf("mesh peers = %d", len(mesh.Peers))
	}
	cl, err := ClusteredOverlay(3, 4, 2, 2, 2, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Bottleneck) != 2 {
		t.Fatalf("clustered bottleneck = %v", cl.Bottleneck)
	}
}

func TestFacadeSimulateAgreesWithExact(t *testing.T) {
	g, dem := figure2Demand()
	want, err := Reliability(g, dem)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(g, dem, SimConfig{Sessions: 50000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DeliveryRate-want) > 5*rep.StdErr+1e-9 {
		t.Fatalf("sim %g vs exact %g", rep.DeliveryRate, want)
	}
}

func TestFacadeParseText(t *testing.T) {
	f, err := ParseTextString("edge s t 1 0.25\ndemand s t 1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reliability(f.Graph, *f.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("R = %g, want 0.75", r)
	}
	if _, err := ParseText(strings.NewReader("frob")); err == nil {
		t.Fatal("bad input accepted")
	}
}

// TestFigure4OverlayThroughFacade exercises the Fig. 4 reconstruction end
// to end through the public API.
func TestFigure4OverlayThroughFacade(t *testing.T) {
	o := Figure4Overlay()
	dem := o.Demand(o.Peers[0])
	rep, err := Compute(o.G, dem, Config{Engine: EngineCore, Bottleneck: o.Bottleneck})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Assignments) != 3 || rep.K != 2 {
		t.Fatalf("K=%d |D|=%d", rep.K, len(rep.Assignments))
	}
	naive, err := Compute(o.G, dem, Config{Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Reliability-naive.Reliability) > 1e-12 {
		t.Fatalf("core %.15f vs naive %.15f", rep.Reliability, naive.Reliability)
	}
}
