package conf

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
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
	for mask := Mask(0); mask < 1<<len(p); mask++ {
		sum += tab.Prob(mask)
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

func TestTooManyEdges(t *testing.T) {
	var err error = &ErrTooManyEdges{N: MaxEnumEdges + 1, Where: "graph"}
	var tooMany *ErrTooManyEdges
	if ok := errorAs(err, &tooMany); !ok || tooMany.N != MaxEnumEdges+1 {
		t.Fatalf("error = %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "graph has 64 links") || !strings.Contains(msg, "at most 63") {
		t.Fatalf("message %q does not name the size and the limit", msg)
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
		for mask := Mask(0); mask < 1<<m; mask++ {
			sum += tab.Prob(mask)
		}
		return math.Abs(sum-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
