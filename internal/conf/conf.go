// Package conf handles failure configurations: subsets of links that are
// simultaneously operational, their occurrence probabilities (Eq. 2 of the
// paper), and the split of the 2^m configuration space into contiguous
// chunks for parallel enumeration (anytime.Walk walks each chunk).
package conf

import (
	"fmt"
	"math/big"
)

// MaxEnumEdges is the widest link set the mask-based enumeration engines
// accept. Beyond this, exhaustive enumeration is infeasible anyway.
const MaxEnumEdges = 63

// ErrTooManyEdges is returned when an enumeration engine is asked to
// enumerate more than MaxEnumEdges links.
type ErrTooManyEdges struct {
	N     int
	Where string
}

func (e *ErrTooManyEdges) Error() string {
	return fmt.Sprintf("conf: %s has %d links; exhaustive enumeration supports at most %d", e.Where, e.N, MaxEnumEdges)
}

// Mask is a failure configuration over m ≤ 63 links: bit i set means link i
// is operational.
type Mask = uint64

// Prob returns the occurrence probability of configuration mask over the m
// links with failure probabilities p: Π_{alive}(1-p) · Π_{dead}p (Eq. 2).
func Prob(p []float64, mask Mask) float64 {
	pr := 1.0
	for i, pi := range p {
		if mask&(1<<uint(i)) != 0 {
			pr *= 1 - pi
		} else {
			pr *= pi
		}
	}
	return pr
}

// ProbRat is Prob in exact rational arithmetic; p gives each link's failure
// probability as a rational.
func ProbRat(p []*big.Rat, mask Mask) *big.Rat {
	pr := new(big.Rat).SetInt64(1)
	one := new(big.Rat).SetInt64(1)
	tmp := new(big.Rat)
	for i, pi := range p {
		if mask&(1<<uint(i)) != 0 {
			tmp.Sub(one, pi)
			pr.Mul(pr, tmp)
		} else {
			pr.Mul(pr, pi)
		}
	}
	return pr
}

// Table precomputes, for each link, the pair (p, 1-p) that a
// configuration's probability multiplies.
type Table struct {
	PFail []float64
	PLive []float64
}

// NewTable builds a Table from failure probabilities.
func NewTable(pFail []float64) *Table {
	t := &Table{PFail: append([]float64(nil), pFail...), PLive: make([]float64, len(pFail))}
	for i, p := range pFail {
		t.PLive[i] = 1 - p
	}
	return t
}

// Prob returns the probability of the configuration.
func (t *Table) Prob(mask Mask) float64 {
	pr := 1.0
	for i := range t.PFail {
		if mask&(1<<uint(i)) != 0 {
			pr *= t.PLive[i]
		} else {
			pr *= t.PFail[i]
		}
	}
	return pr
}

// EnumChunks is the maximum chunk count SplitEnum produces: keeping the
// chunking independent of the worker count makes per-chunk partial sums —
// and therefore the floating-point result — bit-identical for any
// parallelism setting.
const EnumChunks = 64

// minChunkConfigs keeps chunks from shrinking below a useful grain: a
// per-chunk network clone must amortize over enough configurations.
const minChunkConfigs = 64

// SplitEnum partitions the 2^m configuration space for the enumeration
// engines: up to EnumChunks chunks, never smaller than minChunkConfigs
// configurations each, and a function of m alone (never of the worker
// count) so results are deterministic under any parallelism.
func SplitEnum(m int) [][2]uint64 {
	chunks := EnumChunks
	if total := uint64(1) << uint(m); uint64(chunks)*minChunkConfigs > total {
		chunks = int(total / minChunkConfigs)
		if chunks < 1 {
			chunks = 1
		}
	}
	return Split(m, chunks)
}

// Split partitions the 2^m configuration space into `chunks` contiguous
// near-equal ranges for parallel enumeration, earlier ranges taking the
// remainder, and returns [start, end) index pairs. Empty ranges are
// omitted.
func Split(m int, chunks int) [][2]uint64 {
	total := uint64(1) << uint(m)
	if chunks < 1 {
		chunks = 1
	}
	if uint64(chunks) > total {
		chunks = int(total)
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]uint64, 0, chunks)
	per := total / uint64(chunks)
	rem := total % uint64(chunks)
	var start uint64
	for c := 0; c < chunks; c++ {
		n := per
		if uint64(c) < rem {
			n++
		}
		if n == 0 {
			continue
		}
		out = append(out, [2]uint64{start, start + n})
		start += n
	}
	return out
}
