package conf

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProbBasic(t *testing.T) {
	p := []float64{0.1, 0.5}
	cases := []struct {
		mask Mask
		want float64
	}{
		{0b00, 0.1 * 0.5},
		{0b01, 0.9 * 0.5},
		{0b10, 0.1 * 0.5},
		{0b11, 0.9 * 0.5},
	}
	for _, c := range cases {
		if got := Prob(p, c.mask); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("Prob(%b) = %g, want %g", c.mask, got, c.want)
		}
	}
}

func TestProbSumsToOne(t *testing.T) {
	p := []float64{0.1, 0.25, 0.7, 0.01}
	tab := NewTable(p)
	sum := 0.0
	if err := tab.Iter(func(_ Mask, pr float64) { sum += pr }); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %g, want 1", sum)
	}
}

func TestProbRatMatchesFloat(t *testing.T) {
	pf := []float64{0.1, 0.25, 0.5}
	pr := []*big.Rat{big.NewRat(1, 10), big.NewRat(1, 4), big.NewRat(1, 2)}
	for mask := Mask(0); mask < 8; mask++ {
		got, _ := ProbRat(pr, mask).Float64()
		want := Prob(pf, mask)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("mask %b: rat %g float %g", mask, got, want)
		}
	}
}

func TestGrayCodeProperties(t *testing.T) {
	const m = 10
	seen := make(map[Mask]bool)
	prev := GrayMask(0)
	seen[prev] = true
	for i := uint64(1); i < 1<<m; i++ {
		g := GrayMask(i)
		if bits.OnesCount64(prev^g) != 1 {
			t.Fatalf("Gray step %d flips %d bits", i, bits.OnesCount64(prev^g))
		}
		if flip := GrayFlip(i); prev^g != 1<<uint(flip) {
			t.Fatalf("GrayFlip(%d) = %d, but diff = %b", i, flip, prev^g)
		}
		if seen[g] {
			t.Fatalf("Gray mask %b repeated", g)
		}
		seen[g] = true
		prev = g
	}
	if len(seen) != 1<<m {
		t.Fatalf("visited %d masks, want %d", len(seen), 1<<m)
	}
}

func TestIterGrayProbMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := make([]float64, 12)
	for i := range p {
		p[i] = rng.Float64() * 0.95
	}
	p[3] = 0 // exercise the zero-probability fallback
	tab := NewTable(p)
	count := 0
	err := tab.IterGray(func(mask Mask, flip int, prob float64) {
		want := tab.Prob(mask)
		if math.Abs(prob-want) > 1e-12 {
			t.Fatalf("mask %b: incremental %g, direct %g", mask, prob, want)
		}
		if count == 0 && (mask != 0 || flip != -1) {
			t.Fatalf("first visit mask=%b flip=%d", mask, flip)
		}
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1<<12 {
		t.Fatalf("visited %d configurations, want %d", count, 1<<12)
	}
}

func TestIterGrayDriftResync(t *testing.T) {
	// No zero probabilities: the incremental path with periodic resync.
	rng := rand.New(rand.NewSource(7))
	p := make([]float64, 14)
	for i := range p {
		p[i] = 0.01 + rng.Float64()*0.9
	}
	tab := NewTable(p)
	worst := 0.0
	if err := tab.IterGray(func(mask Mask, _ int, prob float64) {
		want := tab.Prob(mask)
		rel := math.Abs(prob-want) / math.Max(want, 1e-300)
		if rel > worst {
			worst = rel
		}
	}); err != nil {
		t.Fatal(err)
	}
	if worst > 1e-10 {
		t.Fatalf("worst relative drift %g", worst)
	}
}

func TestTooManyEdges(t *testing.T) {
	p := make([]float64, MaxEnumEdges+1)
	tab := NewTable(p)
	if err := tab.Iter(func(Mask, float64) {}); err == nil {
		t.Fatal("Iter accepted too many links")
	}
	err := tab.IterGray(func(Mask, int, float64) {})
	if err == nil {
		t.Fatal("IterGray accepted too many links")
	}
	var tooMany *ErrTooManyEdges
	if ok := errorAs(err, &tooMany); !ok || tooMany.N != MaxEnumEdges+1 {
		t.Fatalf("error = %v", err)
	}
}

// errorAs is a tiny local errors.As to avoid importing errors for one use.
func errorAs(err error, target **ErrTooManyEdges) bool {
	e, ok := err.(*ErrTooManyEdges)
	if ok {
		*target = e
	}
	return ok
}

func TestSplitCoversRange(t *testing.T) {
	for _, m := range []int{0, 1, 3, 7} {
		for _, chunks := range []int{1, 2, 3, 8, 100} {
			ranges := Split(m, chunks)
			var next uint64
			for _, r := range ranges {
				if r[0] != next {
					t.Fatalf("m=%d chunks=%d: gap at %d", m, chunks, next)
				}
				if r[1] <= r[0] {
					t.Fatalf("m=%d chunks=%d: empty range", m, chunks)
				}
				next = r[1]
			}
			if next != 1<<uint(m) {
				t.Fatalf("m=%d chunks=%d: covered %d of %d", m, chunks, next, 1<<uint(m))
			}
		}
	}
	if got := Split(4, 0); len(got) != 1 {
		t.Fatalf("chunks=0 should clamp to 1, got %v", got)
	}
}

// Property: Split is balanced within one element.
func TestQuickSplitBalanced(t *testing.T) {
	f := func(mRaw, cRaw uint8) bool {
		m := int(mRaw % 16)
		chunks := int(cRaw%12) + 1
		ranges := Split(m, chunks)
		var lo, hi uint64 = math.MaxUint64, 0
		for _, r := range ranges {
			n := r[1] - r[0]
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		return len(ranges) == 0 || hi-lo <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: probabilities over any table sum to 1.
func TestQuickProbSum(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, m)
		for i := range p {
			p[i] = rng.Float64() * 0.99
		}
		tab := NewTable(p)
		sum := 0.0
		if err := tab.Iter(func(_ Mask, pr float64) { sum += pr }); err != nil {
			return false
		}
		return math.Abs(sum-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
