package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"flowrel/internal/assign"
	"flowrel/internal/graph"
	"flowrel/internal/mincut"
	"flowrel/internal/reliability"
	"flowrel/internal/subset"
)

// TestExactDecompositionEqualsExactNaive asserts big.Rat EQUALITY between
// the decomposition (run entirely in rational arithmetic) and the exact
// naive enumeration: the algorithm is exactly correct, with zero
// tolerance, on the paper's worked examples.
func TestExactDecompositionEqualsExactNaive(t *testing.T) {
	for name, mk := range map[string]func() (*graph.Graph, graph.Demand, []graph.EdgeID){
		"bridge": func() (*graph.Graph, graph.Demand, []graph.EdgeID) {
			g, dem, bridge := bridgeGraph()
			return g, dem, []graph.EdgeID{bridge}
		},
		"twoBottleneck": func() (*graph.Graph, graph.Demand, []graph.EdgeID) {
			return twoBottleneck()
		},
	} {
		g, dem, cut := mk()
		want, err := reliability.NaiveExact(g, dem)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReliabilityExact(g, dem, Options{Bottleneck: cut})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: decomposition %s != naive %s", name, got.RatString(), want.RatString())
		}
	}
}

func TestExactTriviallyZero(t *testing.T) {
	g, dem, _ := bridgeGraph()
	dem.D = 3
	r, err := ReliabilityExact(g, dem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sign() != 0 {
		t.Fatalf("R = %s, want 0", r.RatString())
	}
}

func TestExactErrors(t *testing.T) {
	g, dem, _ := twoBottleneck()
	if _, err := ReliabilityExact(nil, dem, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := ReliabilityExact(g, graph.Demand{S: 0, T: 0, D: 1}, Options{}); err == nil {
		t.Fatal("bad demand accepted")
	}
	if _, err := ReliabilityExact(g, dem, Options{MaxAssignmentSet: 1}); err == nil {
		t.Fatal("assignment limit not enforced")
	}
	if _, err := ReliabilityExact(g, dem, Options{Bottleneck: []graph.EdgeID{0}}); err == nil {
		t.Fatal("non-cut accepted")
	}
}

// Property: rational decomposition equals rational naive exactly, and the
// float decomposition is within float tolerance of both.
func TestQuickExactDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dem, cut := plantBottleneck(rng, 2+rng.Intn(2), 2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(2))
		if g.NumEdges() > 14 {
			return true
		}
		exact, err := ReliabilityExact(g, dem, Options{Bottleneck: cut})
		if err != nil {
			return true // planted cut may fail minimality; skip
		}
		want, err := reliability.NaiveExact(g, dem)
		if err != nil {
			return false
		}
		if exact.Cmp(want) != 0 {
			t.Logf("seed %d: %s != %s", seed, exact.RatString(), want.RatString())
			return false
		}
		fl, err := Reliability(g, dem, Options{Bottleneck: cut})
		if err != nil {
			return false
		}
		ef, _ := exact.Float64()
		return math.Abs(fl.Reliability-ef) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ReliabilityExact runs the bottleneck decomposition in exact rational
// arithmetic: the side realization arrays are combinatorial (no floats
// involved), and the probability aggregation, zeta transform,
// inclusion–exclusion and Eq. 3 summation all use big.Rat with the exact
// rational values of the links' float64 probabilities. The result is
// therefore *identical* — not merely close — to the exact naive
// enumeration, which the test suite asserts with big.Rat equality. This
// validates the decomposition itself, separately from floating-point
// error. Sequential and slow: it exists for these tests only.
func ReliabilityExact(g *graph.Graph, dem graph.Demand, opt Options) (*big.Rat, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return nil, err
	}
	opt.setDefaults()

	var bt *mincut.Bottleneck
	var err error
	if opt.Bottleneck != nil {
		bt, err = mincut.Split(g, dem.S, dem.T, opt.Bottleneck)
	} else {
		bt, err = mincut.Find(g, dem.S, dem.T, opt.MaxBottleneck)
	}
	if err != nil {
		return nil, err
	}

	caps := make([]int, bt.K())
	for i, eid := range bt.Cut {
		caps[i] = g.Edge(eid).Cap
	}
	ds, err := assign.NewSet(caps, dem.D)
	if err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return new(big.Rat), nil
	}
	if ds.Len() > opt.MaxAssignmentSet {
		return nil, fmt.Errorf("core: |𝒟| = %d exceeds MaxAssignmentSet %d", ds.Len(), opt.MaxAssignmentSet)
	}
	for _, sub := range [2]*graph.Subgraph{bt.Gs, bt.Gt} {
		if m := sub.G.NumEdges(); m > opt.MaxSideEdges {
			return nil, fmt.Errorf("core: component has %d links, exceeding MaxSideEdges %d", m, opt.MaxSideEdges)
		}
	}

	var stats Stats
	rowsS, err := buildSide(bt.Gs, bt.Gs.NodeOf[dem.S], bt.XS, true, ds, &opt, &stats, 0)
	if err != nil {
		return nil, err
	}
	rowsT, err := buildSide(bt.Gt, bt.Gt.NodeOf[dem.T], bt.YT, false, ds, &opt, &stats, 1)
	if err != nil {
		return nil, err
	}

	qs := aggregateRat(realizedArray(rowsS, ds.Len(), bt.Gs.G.NumEdges()), bt.Gs, ds.Len())
	qt := aggregateRat(realizedArray(rowsT, ds.Len(), bt.Gt.G.NumEdges()), bt.Gt, ds.Len())
	supersetZetaRat(qs, ds.Len())
	supersetZetaRat(qt, ds.Len())

	pCut := make([]*big.Rat, bt.K())
	for i, eid := range bt.Cut {
		pCut[i] = new(big.Rat).SetFloat64(g.Edge(eid).PFail)
	}
	classes := ds.Classify()
	one := new(big.Rat).SetInt64(1)
	total := new(big.Rat)
	tmp := new(big.Rat)
	for e := uint64(0); e < uint64(1)<<uint(bt.K()); e++ {
		// Rational arithmetic makes each accumulation step orders of
		// magnitude slower than the float path, so this enumeration
		// charges the budget per bottleneck configuration rather than per
		// anytime.CheckEvery batch.
		if !opt.Ctl.Charge(1, 0) {
			return nil, opt.Ctl.Err()
		}
		dMask := classes[e]
		if dMask == 0 {
			continue
		}
		// p_{E''} (Eq. 2) in rationals.
		pe := new(big.Rat).SetInt64(1)
		for i := range pCut {
			if e&(1<<uint(i)) != 0 {
				tmp.Sub(one, pCut[i])
				pe.Mul(pe, tmp)
			} else {
				pe.Mul(pe, pCut[i])
			}
		}
		r := new(big.Rat)
		subset.Submasks(dMask, func(x uint64) {
			if x == 0 {
				return
			}
			tmp.Mul(qs[x], qt[x])
			if subset.PopcountParity(x) < 0 { // odd |X|: add
				r.Add(r, tmp)
			} else {
				r.Sub(r, tmp)
			}
		})
		tmp.Mul(pe, r)
		total.Add(total, tmp)
	}
	return total, nil
}

// aggregateRat sums exact configuration probabilities by realized mask.
func aggregateRat(realized []uint64, sub *graph.Subgraph, n int) []*big.Rat {
	q := make([]*big.Rat, uint64(1)<<uint(n))
	for i := range q {
		q[i] = new(big.Rat)
	}
	pFail := make([]*big.Rat, sub.G.NumEdges())
	pLive := make([]*big.Rat, sub.G.NumEdges())
	one := new(big.Rat).SetInt64(1)
	for i, e := range sub.G.Edges() {
		pFail[i] = new(big.Rat).SetFloat64(e.PFail)
		pLive[i] = new(big.Rat).Sub(one, pFail[i])
	}
	pr := new(big.Rat)
	for mask, rm := range realized {
		pr.SetInt64(1)
		for i := range pFail {
			if uint64(mask)&(1<<uint(i)) != 0 {
				pr.Mul(pr, pLive[i])
			} else {
				pr.Mul(pr, pFail[i])
			}
		}
		q[rm].Add(q[rm], pr)
	}
	return q
}

// supersetZetaRat is subset.SupersetZeta over rationals.
func supersetZetaRat(f []*big.Rat, n int) {
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := 0; m < len(f); m++ {
			if m&bit == 0 {
				f[m].Add(f[m], f[m|bit])
			}
		}
	}
}
