package anytime

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"flowrel/internal/maxflow"
)

// sampleCheckEvery is the charge grain of Sample: a sample costs |E|
// PRNG draws plus a max flow, dearer than an enumeration step, so a
// finer grain than CheckEvery costs nothing measurable and lets a
// sampler notice a stop sooner.
const sampleCheckEvery = 256

// Run is the worker pool of the enumeration and sampling engines. It
// runs body(item, cur) for every item in [0, n) — an enumeration chunk
// or a sample block — on at most workers goroutines (≤ 0 means
// GOMAXPROCS). Items start in index order but finish in any order, so a
// body writes only its own item's slots and the caller merges them in
// item order; that keeps every complete answer bit-identical at any
// worker count. Once ctl has stopped, or an item has failed, the items
// not yet started are skipped. A panic in body becomes a *PanicError
// naming where and the index the body last stored in *cur, and stops
// ctl. Run returns the first error in item order.
func Run(ctl *Ctl, workers, n int, where string, body func(item int, cur *uint64)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctl.Stopped() || failed.Load() {
					return
				}
				if runItem(ctl, where, i, body, &errs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runItem runs one item under the panic guard.
func runItem(ctl *Ctl, where string, i int, body func(int, *uint64), dst *error) {
	var cur uint64
	defer RecoverInto(dst, ctl, where, &cur)
	body(i, &cur)
}

// batch is one worker's open charge to a Ctl. It closes once it holds
// grain configurations or grain max-flow calls, so every configuration
// and every call is charged exactly once, and a worker runs at most one
// batch past a stop.
type batch struct {
	ctl   *Ctl
	grain uint64
	n     uint64 // configurations since the last charge
	mark  int64  // max-flow calls at the last charge
}

// Charge books one more configuration, given the worker's running
// max-flow call count, and charges the batch when it is full. It reports
// false once the computation should stop.
func (b *batch) Charge(calls int64) bool {
	b.n++
	if b.n < b.grain && calls-b.mark < int64(b.grain) {
		return true
	}
	return b.flush(calls)
}

// flush charges the open batch, full or not.
func (b *batch) flush(calls int64) bool {
	ok := b.ctl.Charge(b.n, calls-b.mark)
	b.n, b.mark = 0, calls
	return ok
}

// Walk visits the failure configurations mask = lo … hi−1 of the links
// handles of nw in binary order — bit i of mask set means handles[i] is
// up — toggling only the links whose state differs from the previous
// mask (the first from all links up, the state maxflow.FromGraph
// builds). Per configuration it stores mask in *cur, calls hook(mask)
// when hook is non-nil, sets the links and calls visit(mask). It charges
// each configuration and each of nw's max-flow calls to ctl exactly
// once, in batches of CheckEvery configurations or CheckEvery calls, and
// returns early when a charge reports that ctl has stopped.
func Walk(ctl *Ctl, hook func(uint64), nw *maxflow.Network, handles []maxflow.Handle, lo, hi uint64, cur *uint64, visit func(mask uint64)) {
	b := batch{ctl: ctl, grain: CheckEvery, mark: nw.Stats.MaxFlowCalls}
	prev := ^uint64(0)
	width := uint64(1)<<uint(len(handles)) - 1
	for mask := lo; mask < hi; mask++ {
		*cur = mask
		if hook != nil {
			hook(mask)
		}
		for diff := (mask ^ prev) & width; diff != 0; diff &= diff - 1 {
			i := bits.TrailingZeros64(diff)
			nw.SetEnabled(handles[i], mask&(1<<uint(i)) != 0)
		}
		prev = mask
		visit(mask)
		if !b.Charge(nw.Stats.MaxFlowCalls) {
			return
		}
	}
	b.flush(nw.Stats.MaxFlowCalls)
}

// Sample runs sample() n times — one sampler block — storing the sample
// index in *cur and calling hook with it first when hook is non-nil. It
// charges each sample and each of nw's max-flow calls to ctl exactly
// once, in batches of 256 samples or calls, and returns the number of
// samples completed: n, or fewer once ctl has stopped.
func Sample(ctl *Ctl, hook func(uint64), nw *maxflow.Network, n int, cur *uint64, sample func()) int {
	b := batch{ctl: ctl, grain: sampleCheckEvery, mark: nw.Stats.MaxFlowCalls}
	for i := 0; i < n; i++ {
		*cur = uint64(i)
		if hook != nil {
			hook(uint64(i))
		}
		sample()
		if !b.Charge(nw.Stats.MaxFlowCalls) {
			return i + 1
		}
	}
	b.flush(nw.Stats.MaxFlowCalls)
	return n
}
