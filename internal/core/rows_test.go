package core

import (
	"math/rand"
	"slices"
	"testing"
)

// The per-mask oracles of the row encoding (rows.go): the realization
// array as §III-C states it, one realized-assignment mask per side
// configuration, and the counting sort and index extraction that the
// row-word grouping and removal are held to.

// realizedArray expands the rows of an m-link side with n assignments
// into the per-mask array.
func realizedArray(rows []uint64, n, m int) []uint64 {
	out := make([]uint64, uint64(1)<<uint(m))
	for mask := range out {
		out[mask] = realizedAt(rows, uint64(len(rows)/n), n, uint64(mask))
	}
	return out
}

// planRealized is realizedArray for one side of a compiled plan.
func planRealized(p *Plan, side int) []uint64 {
	return realizedArray(p.rows[side], p.ds.Len(), p.SideEdges[side])
}

// rowsOf packs a per-mask array of an m-link side into rows.
func rowsOf(realized []uint64, n, m int) []uint64 {
	words, _ := rowShape(m)
	rows := make([]uint64, uint64(n)*words)
	for mask, rm := range realized {
		for j := 0; j < n; j++ {
			if rm>>uint(j)&1 != 0 {
				rows[uint64(j)*words+uint64(mask)>>lowLinks] |= 1 << (uint(mask) & 63)
			}
		}
	}
	return rows
}

// groupByRealized counting-sorts the configuration masks of one side by
// realized-assignment mask: a permutation grouped by rm (ascending mask
// within each group, so segment sums add in the scalar scatter's order)
// plus the distinct rm values and their segment offsets.
func groupByRealized(realized []uint64, n int) (perm []uint32, segRM []uint32, segOff []int32) {
	counts := make([]int32, uint64(1)<<uint(n))
	nseg := 0
	for _, rm := range realized {
		if counts[rm] == 0 {
			nseg++
		}
		counts[rm]++
	}
	segRM = make([]uint32, 0, nseg)
	segOff = make([]int32, 0, nseg+1)
	total := int32(0)
	for rm, c := range counts {
		if c == 0 {
			continue
		}
		counts[rm] = total // reuse as the group's running write position
		segRM = append(segRM, uint32(rm))
		segOff = append(segOff, total)
		total += c
	}
	segOff = append(segOff, total)
	perm = make([]uint32, len(realized))
	for mask, rm := range realized {
		perm[counts[rm]] = uint32(mask)
		counts[rm]++
	}
	return perm, segRM, segOff
}

// extractRemovedInto fills the child side's realization array after link
// j was removed: child configuration c is the parent configuration with a
// zero inserted at bit j (a disabled link and an absent link induce the
// same network), so every entry is a pure index remap.
func extractRemovedInto(dst, src []uint64, j int) {
	lowMask := uint64(1)<<uint(j) - 1
	for c := range dst {
		cm := uint64(c)
		dst[c] = src[(cm&lowMask)|(cm&^lowMask)<<1]
	}
}

// checkRowEncoding holds the row helpers to the per-mask oracles on one
// side of m links and n assignments: the expanded rows repack to
// themselves, groupRows equals the counting sort entry for entry, and
// removing link j equals the index extraction.
func checkRowEncoding(t *testing.T, rows []uint64, n, m, j int) {
	t.Helper()
	realized := realizedArray(rows, n, m)
	if back := rowsOf(realized, n, m); !slices.Equal(back, rows) {
		t.Fatalf("m=%d n=%d: rows do not round-trip through the per-mask array", m, n)
	}
	perm, segRM, segOff := groupRows(rows, n, m)
	wPerm, wRM, wOff := groupByRealized(realized, n)
	if !slices.Equal(perm, wPerm) || !slices.Equal(segRM, wRM) || !slices.Equal(segOff, wOff) {
		t.Fatalf("m=%d n=%d: groupRows %v %v %v, counting sort %v %v %v", m, n, perm, segRM, segOff, wPerm, wRM, wOff)
	}
	if m == 0 {
		return
	}
	child := removeRows(rows, n, m, j)
	want := make([]uint64, len(realized)/2)
	extractRemovedInto(want, realized, j)
	if got := realizedArray(child, n, m-1); !slices.Equal(got, want) {
		t.Fatalf("m=%d n=%d: removing link %d: rows give %v, extraction %v", m, n, j, got, want)
	}
	if cw, _ := rowShape(m - 1); len(child) != n*int(cw) {
		t.Fatalf("m=%d n=%d: child rows have %d words, want %d", m, n, len(child), n*int(cw))
	}
}

// randomRows draws n arbitrary rows of an m-link side, masked to the
// valid bits.
func randomRows(rng *rand.Rand, n, m int) []uint64 {
	words, valid := rowShape(m)
	rows := make([]uint64, uint64(n)*words)
	for i := range rows {
		rows[i] = rng.Uint64() & valid
	}
	return rows
}

// TestRowEncoding runs checkRowEncoding on every side width up to 12
// links, every |𝒟| up to 6 and every removed link, the word edges
// (m = 5, 6, 7 and j = 5, 6) among them.
func TestRowEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 12; m++ {
		for n := 1; n <= 6; n++ {
			for j := 0; j < max(m, 1); j++ {
				checkRowEncoding(t, randomRows(rng, n, m), n, m, j)
			}
		}
	}
}

// FuzzRowEncoding is TestRowEncoding on fuzzed rows: m from 0 to 12
// links, |𝒟| from 1 to 6, arbitrary row words masked to the valid bits
// (a seed word is xor-shifted into the rest), and a removed link j.
func FuzzRowEncoding(f *testing.F) {
	for _, c := range [][3]int{{5, 3, 4}, {6, 2, 5}, {7, 4, 6}, {7, 1, 5}, {6, 6, 0}, {12, 6, 11}, {0, 1, 0}, {1, 1, 0}} {
		f.Add(uint8(c[0]), uint8(c[1]), uint8(c[2]), uint64(0x9E3779B97F4A7C15)^uint64(c[0]))
	}
	f.Fuzz(func(t *testing.T, mb, nb, jb uint8, seed uint64) {
		m, n := int(mb%13), 1+int(nb%6)
		j := 0
		if m > 0 {
			j = int(jb) % m
		}
		words, valid := rowShape(m)
		rows := make([]uint64, uint64(n)*words)
		x := seed
		for i := range rows {
			rows[i] = x & valid
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		checkRowEncoding(t, rows, n, m, j)
	})
}
