// Package subset implements transforms over the subset lattice of a small
// ground set (≤ 62 elements addressed by bit masks), used by the paper's
// ACCUMULATION procedure: the probability that a component realizes *all*
// assignments in a set X is a superset sum over realized-assignment masks,
// and the probability of realizing *at least one* follows by
// inclusion–exclusion.
package subset

import "math/bits"

// SupersetZeta transforms f (indexed by masks over n elements) in place so
// that on return f[X] = Σ_{Y ⊇ X} f_in[Y]. O(n·2^n).
func SupersetZeta(f []float64, n int) {
	if len(f) != 1<<uint(n) {
		panic("subset: slice length must be 2^n")
	}
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := 0; m < len(f); m++ {
			if m&bit == 0 {
				f[m] += f[m|bit]
			}
		}
	}
}

// SupersetMobius inverts SupersetZeta in place:
// on return f[X] = Σ_{Y ⊇ X} (-1)^{|Y\X|} f_in[Y]. O(n·2^n).
func SupersetMobius(f []float64, n int) {
	if len(f) != 1<<uint(n) {
		panic("subset: slice length must be 2^n")
	}
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := 0; m < len(f); m++ {
			if m&bit == 0 {
				f[m] -= f[m|bit]
			}
		}
	}
}

// SubsetZeta transforms f in place so that f[X] = Σ_{Y ⊆ X} f_in[Y].
func SubsetZeta(f []float64, n int) {
	if len(f) != 1<<uint(n) {
		panic("subset: slice length must be 2^n")
	}
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := 0; m < len(f); m++ {
			if m&bit != 0 {
				f[m] += f[m&^bit]
			}
		}
	}
}

// InclusionExclusion computes P(∪_{b∈U} A_b) from pAll, where pAll[X] =
// P(∩_{b∈X} A_b) for every non-empty X ⊆ U; U is given as a mask over the
// ground set and pAll is indexed by ground-set masks. It enumerates the
// non-empty subsets of U directly: Σ (-1)^{|X|+1} pAll[X]. O(2^|U|).
func InclusionExclusion(pAll []float64, u uint64) float64 {
	if u == 0 {
		return 0
	}
	total := 0.0
	// Enumerate non-empty submasks of u.
	//flowrelvet:unbounded leaf lattice kernel: |U| ≤ k ≤ MaxBottleneck, so the walk is at most 2^k ≈ 8 steps; the enclosing engine charges its Ctl per bottleneck configuration (reviewed: PR-3).
	for x := u; ; x = (x - 1) & u {
		if x != 0 {
			if bits.OnesCount64(x)&1 == 1 {
				total += pAll[x]
			} else {
				total -= pAll[x]
			}
		}
		if x == 0 {
			break
		}
	}
	return total
}

// Submasks calls visit for every submask of u (including 0 and u itself),
// in decreasing numeric order.
func Submasks(u uint64, visit func(x uint64)) {
	//flowrelvet:unbounded leaf lattice kernel shared by every engine: |u| is an assignment-class mask bounded by MaxAssignmentSet, and the caller charges its Ctl around the enclosing enumeration (reviewed: PR-3).
	for x := u; ; x = (x - 1) & u {
		visit(x)
		if x == 0 {
			break
		}
	}
}

// Block is a fixed-width lane group for the transposed (structure-of-
// arrays) kernels: one lattice entry holding the same coordinate of
// several independent probability scenarios. The two widths are the
// scalar kernel (one lane) and the batch kernel (eight lanes — one cache
// line per lattice entry). Each lane is arithmetically independent, so a
// lane of a Block transform computes bit-for-bit what the scalar
// transform computes on that lane's scenario.
type Block interface {
	[1]float64 | [8]float64
}

// SupersetZetaBlock is SupersetZeta over lane blocks: f (indexed by masks
// over n elements, each entry a Block of independent lanes) is
// transformed in place so that on return f[X][l] = Σ_{Y ⊇ X} f_in[Y][l]
// for every lane l. The loop structure — and therefore the floating-point
// addition order within each lane — is exactly SupersetZeta's, so lane l
// of the result is bit-identical to running the scalar transform on lane
// l alone. O(n·2^n·lanes).
func SupersetZetaBlock[B Block](f []B, n int) {
	if len(f) != 1<<uint(n) {
		panic("subset: slice length must be 2^n")
	}
	lanes := len(f[0])
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := 0; m < len(f); m++ {
			if m&bit == 0 {
				for l := 0; l < lanes; l++ {
					f[m][l] += f[m|bit][l]
				}
			}
		}
	}
}

// PopcountParity returns +1.0 for even popcount, -1.0 for odd.
func PopcountParity(x uint64) float64 {
	if bits.OnesCount64(x)&1 == 1 {
		return -1
	}
	return 1
}
