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

// BenchmarkIter times plain binary iteration, whose per-mask probability
// costs O(m).
func BenchmarkIter(b *testing.B) {
	for _, m := range []int{12, 18} {
		t := benchTable(m)
		b.Run(fmt.Sprintf("binary/m=%d", m), func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				_ = t.Iter(func(_ Mask, p float64) { sink += p })
			}
			_ = sink
		})
	}
}
