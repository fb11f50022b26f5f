package core

import (
	"fmt"
	"math/bits"
	"slices"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// The frontier walk builds a side's realization array (§III-C) while
// paying max-flow only where no exact argument decides a pair. It rests
// on one fact: realization is monotone in the link set. Adding a live
// link never removes an s–t flow, so if configuration S realizes
// assignment a then every superset of S does, and if S cannot carry a's
// load then no subset of S can. Each of those consequences is a set
// operation, so the walk decides 64 masks per machine word. The same
// holds for a chain segment and a pair (a, b) of an incoming and an
// outgoing assignment (segment.go), so the walk builds segments too: it
// decides one row per demand-arc load vector, an assignment's loads on a
// plan side and a pair's on a segment, and "assignment" below stands
// for either.
//
// Layout: assignment j's row holds one bit per side mask; word wi of a
// row covers masks wi·64 … wi·64+63, so the six low links index a bit
// inside a word and the rest index the word. A side of m < 6 links has
// one word of 2^m valid bits. The walk visits the words in increasing
// order and decides each (assignment, word) by the first of these that
// applies to a bit:
//
//   - upward (closure): a mask is realized when a proper submask is.
//     Dropping one high link gives an earlier, final word, so OR-ing
//     those words and closing the result upward inside the word (six
//     shift-and-OR steps, upClose) marks exactly the masks with a
//     realized submask in an earlier word.
//   - capacity bound: Σ capacities of the live links, plus any demand
//     that enters the super terminal directly at the real terminal,
//     upper-bounds the max flow. The high links' sum is one number per
//     word (capHigh), and a table over the low links gives, per
//     threshold, the low masks whose sum stays below it (below): one
//     subtraction and one lookup per (assignment, word).
//   - cut certificate: a failed solve leaves a minimum cut whose capacity
//     is the max flow, below the load. The links crossing it that the
//     solved mask lacks form a certificate A: any mask with mask&A == 0
//     enables no crossing link the solved mask lacked, so the same cut
//     holds it below the load. In a word disjoint from A's high part
//     that is one fixed pattern, the low masks disjoint from A's low six
//     bits.
//   - otherwise one warm-started max-flow solve per still-open bit,
//     lowest first, so each assignment's network solves its masks in
//     ascending order. A realized solve settles the bit's in-word
//     supersets; a failed one records its certificate and applies it to
//     the rest of the word.
//
// None of these guesses: each is an exact implication of max-flow
// feasibility, so the resulting array is bit-identical to a dense walk
// that solves every pair from scratch (the tests' oracle). Budget
// accounting matches that walk too: every (assignment, configuration)
// pair is charged, per word, whether it was pruned or solved, so anytime
// budgets and certified partial bounds see |𝒟|·2^m configurations per
// side. A certificate holds only under the capacities it was made with,
// so every walk — cold or delta — starts with empty lists.

// certCap bounds each assignment's certificate list, and with it the
// scan per open (assignment, word); past it the least recently used
// certificate makes room, so the scan never grows past a fixed cost.
const certCap = 32

// lowLinks is the number of side links that index a bit inside a row
// word (2^6 = 64 masks per word); the remaining links index the word.
const lowLinks = 6

// clearLow[i] is the in-word pattern of the low masks that lack link i.
var clearLow = [lowLinks]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// upClose closes an in-word pattern upward: the result holds every low
// mask that has a submask in x.
func upClose(x uint64) uint64 {
	x |= (x & clearLow[0]) << 1
	x |= (x & clearLow[1]) << 2
	x |= (x & clearLow[2]) << 4
	x |= (x & clearLow[3]) << 8
	x |= (x & clearLow[4]) << 16
	x |= (x & clearLow[5]) << 32
	return x
}

// upLow is the in-word pattern of the low masks that contain b.
func upLow(b int) uint64 {
	p := ^uint64(0)
	for r := uint(b); r != 0; r &= r - 1 {
		p &^= clearLow[bits.TrailingZeros(r)]
	}
	return p
}

// disjointLow is the in-word pattern of the low masks that share no
// link with a's low six bits.
func disjointLow(a uint64) uint64 {
	p := ^uint64(0)
	for r := a & (1<<lowLinks - 1); r != 0; r &= r - 1 {
		p &= clearLow[bits.TrailingZeros64(r)]
	}
	return p
}

// frontierCtx carries the inputs of one walk: the network, whose demand
// arcs join the super terminals to the walked links' endpoints, and one
// row per demand-arc load vector. A plan side has one row per assignment
// (newFrontierCtx), a chain segment one per pair of assignments
// (newSegmentCtx).
type frontierCtx struct {
	proto      *maxflow.Network
	handles    []maxflow.Handle
	demandArcs []maxflow.Handle
	src, dst   int32
	d          int
	loads      [][]int // per row: each demand arc's capacity
	opt        *Options
	caps       []int // per walked link, for the capacity bound
	need       []int // per row: d minus the flow that crosses no link
}

// newFrontierCtx builds the walk context for one plan side, for the cold
// walk and the delta walks alike.
func newFrontierCtx(sub *graph.Subgraph, terminal graph.NodeID, ends []graph.NodeID, toSink bool, ds *assign.Set, opt *Options) *frontierCtx {
	n := ds.Len()
	f := &frontierCtx{d: ds.D, opt: opt, caps: linkCaps(sub), loads: make([][]int, n), need: make([]int, n)}
	f.proto, f.handles, f.demandArcs, f.src, f.dst = sideProto(sub, terminal, ends, toSink)
	at, whole := []graph.NodeID{terminal}, []int{ds.D}
	for j, a := range ds.Assignments {
		f.loads[j] = a
		f.need[j] = crossNeed(ds.D, at, whole, ends, a)
	}
	return f
}

// linkCaps lists the capacities of sub's links by link ID.
func linkCaps(sub *graph.Subgraph) []int {
	caps := make([]int, sub.G.NumEdges())
	for _, e := range sub.G.Edges() {
		caps[e.ID] = e.Cap
	}
	return caps
}

// crossNeed is the part of demand d that loads a at the heads and b at
// the tails must route over links: at a node that is both a head and a
// tail, flow up to the smaller of what a brings in and b takes out there
// passes between the super terminals without one. The link capacities
// must cover the rest, which makes it the capacity bound's threshold.
// For a plan side the terminal is the one head (or tail) with load d.
func crossNeed(d int, heads []graph.NodeID, a []int, tails []graph.NodeID, b []int) int {
	need := d
	for i, x := range heads {
		if slices.Index(heads, x) < i {
			continue // each node once
		}
		in, out := 0, 0
		for i2, x2 := range heads {
			if x2 == x {
				in += a[i2]
			}
		}
		for j, y := range tails {
			if y == x {
				out += b[j]
			}
		}
		need -= min(in, out)
	}
	return need
}

// frontierWorker is the walk's solver state: a lazily cloned residual
// network per assignment, each remembering the configuration and flow
// value it last solved, so the next mask repairs instead of recomputing.
type frontierWorker struct {
	nets  []*maxflow.Network
	cur   []uint64
	val   []int
	stats Stats
}

func newFrontierWorker(n int) *frontierWorker {
	return &frontierWorker{
		nets: make([]*maxflow.Network, n),
		cur:  make([]uint64, n),
		val:  make([]int, n),
	}
}

// cert is one cut certificate A split at the word boundary: it rules
// out, in every word disjoint from hi (A's high links), the low masks in
// lo (those disjoint from A's low links).
type cert struct{ hi, lo uint64 }

// certTable holds one walk's cut certificates per assignment, most
// recently used first. The lists share one backing array of certCap
// slots each, so recording never allocates.
type certTable [][]cert

func newCertTable(n int) certTable {
	buf := make([]cert, n*certCap)
	t := make(certTable, n)
	for j := range t {
		t[j] = buf[j*certCap : j*certCap : (j+1)*certCap]
	}
	return t
}

// prune clears from open the masks of word wi that assignment j's
// certificates rule out, moving each certificate that clears a mask to
// the front of the list.
func (t certTable) prune(j int, wi, open uint64) uint64 {
	l := t[j]
	for i, c := range l {
		if wi&c.hi == 0 && open&c.lo != 0 {
			open &^= c.lo
			copy(l[1:i+1], l[:i])
			l[0] = c
			if open == 0 {
				break
			}
		}
	}
	return open
}

// record puts a fresh certificate at the front of assignment j's list,
// dropping the least recently used one when the list is full, and
// returns it.
func (t certTable) record(j int, a uint64) cert {
	c := cert{hi: a >> lowLinks, lo: disjointLow(a)}
	l := t[j]
	if len(l) < certCap {
		l = l[:len(l)+1]
	}
	copy(l[1:], l)
	l[0] = c
	t[j] = l
	return c
}

// wordWalk is one walk's state over a side's current links: the rows,
// the capacity table, the certificate lists and the pending charge.
type wordWalk struct {
	f     *frontierCtx
	w     *frontierWorker
	certs certTable
	n     int
	// words is the number of words per row, and valid the bits of a
	// word that are masks of the side (all 64 unless m < 6).
	words uint64
	valid uint64
	// rows holds assignment j's row at rows[j*words : (j+1)*words];
	// shared marks rows borrowed from a parent plan, copied on first
	// write.
	rows   []uint64
	shared bool
	// capHigh[wi] is the clamped capacity sum of word wi's high links,
	// and below[t] the low masks whose clamped sum is under t.
	capHigh []int
	below   []uint64
	// pending configurations and max-flow calls not yet charged.
	pending   uint64
	callsMark int64
}

// newWordWalk sets up a walk over the side's current links with empty
// certificate lists. Its rows start from rows, the parent side's rows:
// rows of a side one link narrower fill the low half of each row (an
// added link is the top bit), rows of the same shape are shared, and nil
// rows leave them zero. Capacities are clamped at d: a live link of
// capacity ≥ d alone meets any assignment's need, so the bound decides
// the same pairs, and the table stays sized by d even where a link
// carries capacity 10^9.
func newWordWalk(f *frontierCtx, w *frontierWorker, rows []uint64) *wordWalk {
	m, n := len(f.handles), len(f.loads)
	ww := &wordWalk{
		f:         f,
		w:         w,
		certs:     newCertTable(n),
		n:         n,
		callsMark: w.stats.FrontierMaxFlowCalls,
	}
	ww.words, ww.valid = rowShape(m)
	low := min(m, lowLinks)
	switch size := uint64(n) * ww.words; {
	case rows == nil:
		ww.rows = make([]uint64, size)
	case uint64(len(rows)) < size:
		ww.rows = make([]uint64, size)
		half := uint64(len(rows) / n)
		for j := 0; j < n; j++ {
			copy(ww.row(j), rows[uint64(j)*half:uint64(j+1)*half])
		}
	default:
		ww.rows, ww.shared = rows, true
	}

	clamped := func(i int) int { return min(f.caps[i], f.d) }

	ww.capHigh = make([]int, ww.words)
	for wi := uint64(1); wi < ww.words; wi++ {
		ww.capHigh[wi] = ww.capHigh[wi&(wi-1)] + clamped(lowLinks+bits.TrailingZeros64(wi))
	}
	var sums [1 << lowLinks]int
	maxLow := 0
	for i := 0; i < low; i++ {
		maxLow += clamped(i)
	}
	ww.below = make([]uint64, min(f.d, maxLow+1)+1)
	lows := 1 << uint(low) // at most 64
	for lo := 0; lo < lows; lo++ {
		if lo > 0 {
			sums[lo] = sums[lo&(lo-1)] + clamped(bits.TrailingZeros(uint(lo)))
		}
		if t := sums[lo] + 1; t < len(ww.below) {
			ww.below[t] |= 1 << uint(lo)
		}
	}
	for t := 1; t < len(ww.below); t++ {
		ww.below[t] |= ww.below[t-1]
	}
	return ww
}

// row returns assignment j's row.
func (ww *wordWalk) row(j int) []uint64 {
	return ww.rows[uint64(j)*ww.words : uint64(j+1)*ww.words]
}

// own gives the walk a private copy of borrowed rows before a write.
func (ww *wordWalk) own() {
	if ww.shared {
		ww.rows, ww.shared = append([]uint64(nil), ww.rows...), false
	}
}

// closure returns the masks of row word wi that have a realized proper
// submask: the OR of the words that drop one high link (earlier, hence
// final) and of the final in-word bits keep, closed upward in the word.
func closure(row []uint64, wi, keep uint64) uint64 {
	c := keep
	for hb := wi; hb != 0; hb &= hb - 1 {
		c |= row[wi&^(hb&-hb)]
	}
	return upClose(c)
}

// charge books cfgs (assignment, configuration) pairs and passes the
// pending total to the Ctl once it reaches the check grain, or at once
// when final is set. It reports false once the budget stops the walk.
func (ww *wordWalk) charge(cfgs uint64, final bool) bool {
	ww.w.stats.RealizationChecks += int64(cfgs)
	ww.pending += cfgs
	if !final && ww.pending < anytime.CheckEvery {
		return true
	}
	calls := ww.w.stats.FrontierMaxFlowCalls
	ok := ww.f.opt.Ctl.Charge(ww.pending, calls-ww.callsMark)
	ww.pending, ww.callsMark = 0, calls
	return ok
}

// walkFrontier runs the ascending word walk and returns the rows. A
// panic on the walk (a TestHook fault, say) comes back as the error, and
// so does a stopped Ctl, as an error wrapping anytime.ErrInterrupted.
func walkFrontier(f *frontierCtx, st *Stats) (rows []uint64, err error) {
	w := newFrontierWorker(len(f.loads))
	defer foldWorker(st, w, netStats{})
	cur := uint64(0)
	defer anytime.RecoverInto(&err, f.opt.Ctl, "core frontier walk", &cur)
	ww := newWordWalk(f, w, nil)
	per := uint64(bits.OnesCount64(ww.valid))
	for wi := uint64(0); wi < ww.words; wi++ {
		base := wi << lowLinks
		cur = base
		if f.opt.TestHook != nil {
			for b := uint64(0); b < per; b++ {
				cur = base | b
				f.opt.TestHook(cur)
			}
		}
		for j := 0; j < ww.n; j++ {
			row := ww.row(j)
			c := closure(row, wi, 0) & ww.valid
			w.stats.PrunedClosure += int64(bits.OnesCount64(c))
			if open := ww.valid &^ c; open != 0 {
				c |= ww.decideWord(j, wi, open, false)
			}
			row[wi] = c
		}
		if !ww.charge(uint64(ww.n)*per, false) {
			break
		}
	}
	ww.charge(0, true)
	if f.opt.Ctl.Stopped() {
		return nil, fmt.Errorf("core: word walk interrupted: %w", f.opt.Ctl.Err())
	}
	return ww.rows, nil
}

// decideWord settles the open bits of assignment j's row word wi — the
// masks neither closure nor a parent row decided — and returns the
// masks its solves realized, with their in-word supersets. Capacity and
// certificate skips count as PrunedCapacity (each is a cut below the
// load), and so do the masks a failed solve's certificate clears; the
// supersets a realized solve settles count as PrunedClosure. down takes
// the highest open bit first, else the lowest.
func (ww *wordWalk) decideWord(j int, wi, open uint64, down bool) uint64 {
	f, st := ww.f, &ww.w.stats
	before := open
	if t := f.need[j] - ww.capHigh[wi]; t > 0 {
		open &^= ww.below[min(t, len(ww.below)-1)]
	}
	open = ww.certs.prune(j, wi, open)
	st.PrunedCapacity += int64(bits.OnesCount64(before &^ open))
	var got uint64
	for open != 0 {
		b := bits.TrailingZeros64(open)
		if down {
			b = 63 - bits.LeadingZeros64(open)
		}
		mask := wi<<lowLinks | uint64(b)
		if ok, cut := ww.w.solve(f, j, mask); ok {
			up := upLow(b)
			got |= up
			st.PrunedClosure += int64(bits.OnesCount64(open&up)) - 1
			open &^= up
		} else {
			c := ww.certs.record(j, cut&^mask)
			st.PrunedCapacity += int64(bits.OnesCount64(open&c.lo)) - 1
			open &^= c.lo
		}
	}
	return got & ww.valid
}

// solve pays a max-flow call for one surviving (assignment, mask) pair,
// warm-starting from wherever the assignment's network last stood, and
// reports whether the mask realizes the assignment. On failure it also
// returns the side links crossing the solve's minimum cut.
func (w *frontierWorker) solve(f *frontierCtx, j int, mask uint64) (bool, uint64) {
	nw := w.nets[j]
	if nw == nil {
		nw = f.proto.Clone()
		for i, h := range f.demandArcs {
			nw.SetBaseCapDirected(h, f.loads[j][i])
		}
		for i := range f.handles {
			nw.SetEnabled(f.handles[i], false)
		}
		nw.ResetFlow()
		w.nets[j] = nw
	}
	before := nw.Stats.MaxFlowCalls
	value := nw.RetargetIncremental(f.handles, w.cur[j], mask, f.src, f.dst, w.val[j])
	if value < f.d {
		value += nw.Augment(f.src, f.dst, f.d-value)
	}
	w.stats.FrontierMaxFlowCalls += nw.Stats.MaxFlowCalls - before
	w.cur[j] = mask
	w.val[j] = value
	if value >= f.d {
		return true, 0
	}
	return false, nw.CutCrossing(f.src, f.handles)
}
