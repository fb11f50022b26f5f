package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flowrel/internal/graph"
)

// The per-mask oracles of the row encoding (rows.go): the realization
// array as §III-C states it, one realized-assignment mask per side
// configuration, the dense fill and scatter the word-at-a-time side sums
// are held to, and the index extraction the row removal is held to.

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

// denseProbs returns every configuration's occurrence probability (Eq.
// 2) for a side whose bit i is link links[i], mask by mask: the product
// of the high links' factors (links 6…m−1), then the low links', each
// group in link order — the order the kernels' word fills multiply in.
func denseProbs(pfail []float64, links []graph.EdgeID) []float64 {
	m := len(links)
	order := make([]int, 0, m)
	for i := lowLinks; i < m; i++ {
		order = append(order, i)
	}
	for i := 0; i < min(m, lowLinks); i++ {
		order = append(order, i)
	}
	out := make([]float64, 1<<uint(m))
	for mask := range out {
		p := 1.0
		for _, i := range order {
			if mask>>uint(i)&1 != 0 {
				p *= 1 - pfail[links[i]]
			} else {
				p *= pfail[links[i]]
			}
		}
		out[mask] = p
	}
	return out
}

// denseSums scatters the dense fill by realized set, masks ascending.
func denseSums(realized []uint64, n int, probs []float64) []float64 {
	q := make([]float64, 1<<uint(n))
	for mask, rm := range realized {
		q[rm] += probs[mask]
	}
	return q
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
// themselves, the side sums equal the dense scatter (checkWordSums), and
// removing link j equals the index extraction.
func checkRowEncoding(t *testing.T, rng *rand.Rand, rows []uint64, n, m, j int) {
	t.Helper()
	realized := realizedArray(rows, n, m)
	if back := rowsOf(realized, n, m); !slices.Equal(back, rows) {
		t.Fatalf("m=%d n=%d: rows do not round-trip through the per-mask array", m, n)
	}
	checkWordSums(t, rng, rows, realized, n, m)
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

// checkWordSums draws eight probability vectors over the side's m links
// (a tenth of the entries 0 or 1) and holds every side sum to the dense
// scatter bit for bit: the one-lane sums, EvalScalar's per-mask scatter
// over the word fills, and each lane of the eight-lane sums at every SIMD
// level the host supports.
func checkWordSums(t *testing.T, rng *rand.Rand, rows, realized []uint64, n, m int) {
	t.Helper()
	links := make([]graph.EdgeID, m)
	for i := range links {
		links[i] = graph.EdgeID(i)
	}
	words, _ := rowShape(m)
	sc1 := &kscratch1{hi: make([]float64, words)}
	sc8 := &kscratch8{hi: make([]block8, words)}
	want := make([][]float64, batchLanes)
	for l := range want {
		pf := make([]float64, m)
		for i := range pf {
			switch rng.Intn(20) {
			case 0:
				pf[i] = 0
			case 1:
				pf[i] = 1
			default:
				pf[i] = rng.Float64()
			}
		}
		sc8.rows[l] = pf
		want[l] = denseSums(realized, n, denseProbs(pf, links))
		got := make([]float64, 1<<uint(n))
		sideSums1(got, sc1, rows, n, pf, links)
		assertSameSums(t, "one-lane", m, n, got, want[l])
		aggregateInto(got, sc1, rows, n, pf, links)
		assertSameSums(t, "scalar scatter", m, n, got, want[l])
	}
	detected := kernelSIMD
	defer func() { kernelSIMD = detected }()
	q := make([]block8, 1<<uint(n))
	for level := simdNone; level <= detected; level++ {
		kernelSIMD = level
		sideSums8(q, sc8, rows, n, links)
		for l := range want {
			got := make([]float64, len(q))
			for rm := range q {
				got[rm] = q[rm][l]
			}
			assertSameSums(t, fmt.Sprintf("SIMD level %d lane %d", level, l), m, n, got, want[l])
		}
	}
}

func assertSameSums(t *testing.T, path string, m, n int, got, want []float64) {
	t.Helper()
	for rm := range want {
		if math.Float64bits(got[rm]) != math.Float64bits(want[rm]) {
			t.Fatalf("m=%d n=%d: %s sum for set %#x is %.17g, dense scatter %.17g", m, n, path, rm, got[rm], want[rm])
		}
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

// TestRowEncoding runs checkRowEncoding on every side width up to 14
// links, every |𝒟| up to 6 and every removed link, the word edges
// (m = 5, 6, 7 and j = 5, 6) among them.
func TestRowEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 14; m++ {
		for n := 1; n <= 6; n++ {
			for j := 0; j < max(m, 1); j++ {
				checkRowEncoding(t, rng, randomRows(rng, n, m), n, m, j)
			}
		}
	}
}

// FuzzRowEncoding is TestRowEncoding on fuzzed rows: m from 0 to 14
// links, |𝒟| from 1 to 6, arbitrary row words masked to the valid bits
// (a seed word is xor-shifted into the rest, and seeds the probability
// vectors), and a removed link j.
func FuzzRowEncoding(f *testing.F) {
	for _, c := range [][3]int{{5, 3, 4}, {6, 2, 5}, {7, 4, 6}, {7, 1, 5}, {6, 6, 0}, {12, 6, 11}, {0, 1, 0}, {1, 1, 0}, {14, 5, 6}} {
		f.Add(uint8(c[0]), uint8(c[1]), uint8(c[2]), uint64(0x9E3779B97F4A7C15)^uint64(c[0]))
	}
	f.Fuzz(func(t *testing.T, mb, nb, jb uint8, seed uint64) {
		m, n := int(mb%15), 1+int(nb%6)
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
		checkRowEncoding(t, rand.New(rand.NewSource(int64(seed))), rows, n, m, j)
	})
}
