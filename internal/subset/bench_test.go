package subset

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkSupersetZeta(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 16, 20} {
		src := make([]float64, 1<<uint(n))
		for i := range src {
			src[i] = rng.Float64()
		}
		buf := make([]float64, len(src))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				SupersetZeta(buf, n)
			}
		})
	}
}

func BenchmarkInclusionExclusion(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{8, 12, 16} {
		q := make([]float64, 1<<uint(n))
		for i := range q {
			q[i] = rng.Float64()
		}
		u := uint64(1)<<uint(n) - 1
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				InclusionExclusion(q, u)
			}
		})
	}
}
