package core

import "math/bits"

// A side's §III-C realization array is kept in one encoding, the rows the
// word walk decides (frontier.go): assignment j's row holds one bit per
// side mask, word wi covering masks wi·64 … wi·64+63, and the n rows
// follow one another. The helpers here read that encoding: the realized
// set of one mask, the masks of a word that realize one set (the
// kernel's set sums), and the rows of a side one link narrower.

// rowShape returns the words per row of an m-link side and the bits of a
// word that are masks of the side (all 64 unless m < 6).
func rowShape(m int) (words, valid uint64) {
	if m >= lowLinks {
		return 1 << uint(m-lowLinks), ^uint64(0)
	}
	return 1, uint64(1)<<(uint64(1)<<uint(m)) - 1
}

// realizedAt returns the assignments (a bit mask over 𝒟) that side
// configuration mask realizes, read from n rows of words words each.
func realizedAt(rows []uint64, words uint64, n int, mask uint64) uint64 {
	wi, b := mask>>lowLinks, mask&(1<<lowLinks-1)
	var rm uint64
	for j := 0; j < n; j++ {
		rm |= (rows[uint64(j)*words+wi] >> b & 1) << uint(j)
	}
	return rm
}

// rowClass returns the realized set rm of the lowest mask in rem, a set
// of masks of word wi, and the masks of rem that realize exactly rm: one
// AND of the n row words, each taken as is where rm holds its assignment
// and complemented where it does not.
func rowClass(rows []uint64, words uint64, n int, wi, rem uint64) (rm, set uint64) {
	b := uint(bits.TrailingZeros64(rem))
	set = rem
	for j := 0; j < n; j++ {
		w := rows[uint64(j)*words+wi]
		bit := w >> b & 1
		rm |= bit << uint(j)
		set &= w ^ (bit - 1)
	}
	return rm, set
}

// removeRows returns the rows of an m-link side after its link j was
// removed: child mask c is parent mask c with a zero inserted at bit j (a
// disabled link and an absent link induce the same network). For a high
// link that is a word copy; for one of the six low links each child word
// compacts the j-less halves of two parent words (of one, when the
// parent has a single word).
func removeRows(rows []uint64, n, m, j int) []uint64 {
	pw, _ := rowShape(m)
	cw, _ := rowShape(m - 1)
	out := make([]uint64, uint64(n)*cw)
	for a := uint64(0); a < uint64(n); a++ {
		src, dst := rows[a*pw:(a+1)*pw], out[a*cw:(a+1)*cw]
		switch {
		case j >= lowLinks:
			low := uint64(1)<<uint(j-lowLinks) - 1
			for wi := range dst {
				w := uint64(wi)
				dst[wi] = src[w&low|(w&^low)<<1]
			}
		case pw == 1:
			dst[0] = compactLow(src[0], j)
		default:
			for wi := range dst {
				dst[wi] = compactLow(src[2*wi], j) | compactLow(src[2*wi+1], j)<<32
			}
		}
	}
	return out
}

// compactLow packs the 32 bits of x at the in-word masks that lack low
// link j into the low half, in mask order.
func compactLow(x uint64, j int) uint64 {
	x &= clearLow[j]
	for k := j; k < lowLinks-1; k++ {
		x = (x | x>>(uint(1)<<uint(k))) & clearLow[k+1]
	}
	return x
}
