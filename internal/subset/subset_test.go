package subset

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveSupersetZeta(f []float64, n int) []float64 {
	out := make([]float64, len(f))
	for x := range out {
		for y := range f {
			if y&x == x { // y ⊇ x
				out[x] += f[y]
			}
		}
	}
	return out
}

func naiveSubsetZeta(f []float64, n int) []float64 {
	out := make([]float64, len(f))
	for x := range out {
		for y := range f {
			if y&x == y { // y ⊆ x
				out[x] += f[y]
			}
		}
	}
	return out
}

func randVec(rng *rand.Rand, n int) []float64 {
	f := make([]float64, 1<<uint(n))
	for i := range f {
		f[i] = rng.Float64()*2 - 1
	}
	return f
}

func almostEq(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestSupersetZetaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 6; n++ {
		f := randVec(rng, n)
		want := naiveSupersetZeta(f, n)
		got := append([]float64(nil), f...)
		SupersetZeta(got, n)
		if !almostEq(got, want) {
			t.Fatalf("n=%d: zeta mismatch", n)
		}
	}
}

func TestSubsetZetaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 6; n++ {
		f := randVec(rng, n)
		want := naiveSubsetZeta(f, n)
		got := append([]float64(nil), f...)
		SubsetZeta(got, n)
		if !almostEq(got, want) {
			t.Fatalf("n=%d: subset zeta mismatch", n)
		}
	}
}

func TestMobiusInvertsZeta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 8; n++ {
		f := randVec(rng, n)
		g := append([]float64(nil), f...)
		SupersetZeta(g, n)
		SupersetMobius(g, n)
		if !almostEq(g, f) {
			t.Fatalf("n=%d: Möbius did not invert zeta", n)
		}
	}
}

func TestLengthPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zeta":   func() { SupersetZeta(make([]float64, 3), 2) },
		"mobius": func() { SupersetMobius(make([]float64, 5), 2) },
		"subset": func() { SubsetZeta(make([]float64, 5), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestInclusionExclusionAgainstSets checks P(∪A_b) computed by
// inclusion–exclusion against a direct union over an explicit finite
// probability space.
func TestInclusionExclusionAgainstSets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nEvents = 4
	const nOutcomes = 12
	for trial := 0; trial < 100; trial++ {
		// Random membership: outcome o belongs to event b?
		member := make([][]bool, nEvents)
		for b := range member {
			member[b] = make([]bool, nOutcomes)
			for o := range member[b] {
				member[b][o] = rng.Intn(2) == 0
			}
		}
		// Random outcome probabilities.
		w := make([]float64, nOutcomes)
		sum := 0.0
		for o := range w {
			w[o] = rng.Float64()
			sum += w[o]
		}
		for o := range w {
			w[o] /= sum
		}
		// pAll[X] = P(outcome in all events of X).
		pAll := make([]float64, 1<<nEvents)
		for x := 0; x < 1<<nEvents; x++ {
			for o := 0; o < nOutcomes; o++ {
				in := true
				for b := 0; b < nEvents; b++ {
					if x&(1<<b) != 0 && !member[b][o] {
						in = false
						break
					}
				}
				if in {
					pAll[x] += w[o]
				}
			}
		}
		u := uint64(rng.Intn(1 << nEvents))
		got := InclusionExclusion(pAll, u)
		// direct union
		want := 0.0
		for o := 0; o < nOutcomes; o++ {
			for b := 0; b < nEvents; b++ {
				if u&(1<<b) != 0 && member[b][o] {
					want += w[o]
					break
				}
			}
		}
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("trial %d: IE %g vs direct %g (u=%b)", trial, got, want, u)
		}
	}
}

func TestInclusionExclusionEmpty(t *testing.T) {
	if got := InclusionExclusion([]float64{1}, 0); got != 0 {
		t.Fatalf("empty union = %g, want 0", got)
	}
}

func TestSubmasksEnumeratesAll(t *testing.T) {
	u := uint64(0b10110)
	var got []uint64
	Submasks(u, func(x uint64) { got = append(got, x) })
	if len(got) != 1<<bits.OnesCount64(u) {
		t.Fatalf("visited %d submasks, want %d", len(got), 1<<bits.OnesCount64(u))
	}
	seen := map[uint64]bool{}
	for _, x := range got {
		if x&^u != 0 {
			t.Fatalf("%b is not a submask of %b", x, u)
		}
		if seen[x] {
			t.Fatalf("submask %b repeated", x)
		}
		seen[x] = true
	}
}

func TestPopcountParity(t *testing.T) {
	if PopcountParity(0) != 1 || PopcountParity(0b111) != -1 || PopcountParity(0b11) != 1 {
		t.Fatal("parity wrong")
	}
}

// Property: superset zeta then evaluating IE over full mask equals
// 1 - f'[0] where f' is the "no event" aggregation — checked indirectly:
// IE over U computed from zeta'd point masses equals P(mask intersects U).
func TestQuickIEFromZeta(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		// Random distribution over realized-assignment masks.
		p := make([]float64, 1<<uint(n))
		sum := 0.0
		for i := range p {
			p[i] = rng.Float64()
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		// zeta → q[X] = P(realized ⊇ X)
		q := append([]float64(nil), p...)
		SupersetZeta(q, n)
		u := uint64(rng.Intn(1 << uint(n)))
		got := InclusionExclusion(q, u)
		want := 0.0
		for m := range p {
			if uint64(m)&u != 0 {
				want += p[m]
			}
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSupersetZetaBlockLaneIdentity: each lane of the block transform
// must be bit-identical to running the scalar transform on that lane
// alone — the contract the transposed evaluate kernels build on.
func TestSupersetZetaBlockLaneIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 6; n++ {
		blocks := make([][8]float64, 1<<uint(n))
		lanes := make([][]float64, 8)
		for l := range lanes {
			lanes[l] = make([]float64, len(blocks))
		}
		for m := range blocks {
			for l := 0; l < 8; l++ {
				v := rng.Float64()*2 - 1
				blocks[m][l] = v
				lanes[l][m] = v
			}
		}
		SupersetZetaBlock(blocks, n)
		for l := range lanes {
			SupersetZeta(lanes[l], n)
			for m := range blocks {
				if blocks[m][l] != lanes[l][m] {
					t.Fatalf("n=%d lane %d mask %#x: block %.17g, scalar %.17g", n, l, m, blocks[m][l], lanes[l][m])
				}
			}
		}
		one := make([][1]float64, 1<<uint(n))
		for m := range one {
			one[m][0] = lanes[0][m]
		}
		SupersetZetaBlock(one, n) // the single-lane instantiation compiles and runs
	}
}

func TestSupersetZetaBlockPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SupersetZetaBlock(make([][8]float64, 3), 2)
}
