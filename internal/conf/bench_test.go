package conf

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTable(m int) *Table {
	rng := rand.New(rand.NewSource(int64(m)))
	p := make([]float64, m)
	for i := range p {
		p[i] = 0.01 + rng.Float64()*0.9
	}
	return NewTable(p)
}

// BenchmarkTableProb times the per-mask probability over a whole
// configuration space, which costs O(m) per mask.
func BenchmarkTableProb(b *testing.B) {
	for _, m := range []int{12, 18} {
		t := benchTable(m)
		b.Run(fmt.Sprintf("binary/m=%d", m), func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				for mask := Mask(0); mask < 1<<m; mask++ {
					sink += t.Prob(mask)
				}
			}
			_ = sink
		})
	}
}
