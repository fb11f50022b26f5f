package reliability

import (
	"sync"

	"flowrel/internal/anytime"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// factorChargeEvery is the charging grain of the factoring engine: each
// branch node costs up to two max-flow computations, so a coarser grain
// than the enumeration engines' anytime.CheckEvery keeps accounting tight
// without touching the hot path.
const factorChargeEvery = 64

// Factoring computes the exact reliability by pivotal decomposition
// (conditioning on one link's state at a time) with two-sided pruning:
//
//   - if even with every undecided link operational the demand is not
//     admitted, the whole branch contributes 0;
//   - if with every undecided link failed the demand is still admitted,
//     the branch contributes its entire remaining probability mass.
//
// Between prunings it conditions on a link that carries flow in the
// optimistic max flow, because links off every optimal flow rarely decide
// feasibility. This is the classical exact alternative to plain
// enumeration; the paper's algorithm instead exploits bottleneck structure.
//
// With opt.Ctl the run is anytime: both prunings *prove* mass (admitting
// and failing respectively), so an interrupted run certifies the interval
// [proven admitting, 1 − proven failing] around the true reliability and
// returns it in a partial Result instead of discarding the work.
func Factoring(g *graph.Graph, dem graph.Demand, opt Options) (Result, error) {
	if err := validate(g, dem); err != nil {
		return Result{}, err
	}
	m := g.NumEdges()
	f := &factorer{
		g:    g,
		dem:  dem,
		ctl:  opt.Ctl,
		hook: opt.TestHook,
	}
	f.nw, f.handles = maxflow.FromGraph(g)
	f.state = make([]int8, m)
	// Parallelize the top of the conditioning tree: up to splitDepth
	// levels, the down-branch is handed to a fresh goroutine with its own
	// cloned solver state. Both orders compute `up + down` from the same
	// independently evaluated subtree values, so the result is identical
	// whether or not a split happens — scheduling cannot change it.
	f.sh = &factorShared{sem: make(chan struct{}, opt.workers())}
	if opt.workers() > 1 && m >= 8 {
		f.sh.splitDepth = 6
	}
	var res Result
	var topErr error
	func() {
		defer anytime.RecoverInto(&topErr, f.ctl, "factoring solver", &f.nodes)
		res.Reliability = f.rec(1.0, 0, &res.Stats)
	}()
	f.flushCharge()
	f.sh.mu.Lock() // all children joined before rec returned normally
	res.Stats.add(f.sh.childStats)
	err := f.sh.panicErr
	if err == nil {
		err = topErr
	}
	f.sh.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	res.Stats.MaxFlowCalls += f.nw.Stats.MaxFlowCalls
	res.Stats.AugmentUnits += f.nw.Stats.AugmentUnits
	res.Seal(f.ctl, res.Reliability, res.Stats.refuted)
	return res, nil
}

const (
	stUndecided int8 = iota
	stUp
	stDown
)

// factorShared is the split machinery shared across the whole solver tree.
type factorShared struct {
	splitDepth int           // spawn goroutines above this depth (0 = off)
	sem        chan struct{} // bounds concurrent goroutines
	mu         sync.Mutex
	childStats Stats
	panicErr   error // first recovered worker panic
}

// recordPanic stores the first worker panic and stops the run.
func (sh *factorShared) recordPanic(ctl *anytime.Ctl, node uint64, v any) {
	err := &anytime.PanicError{Where: "factoring worker", Config: node, Value: v}
	sh.mu.Lock()
	if sh.panicErr == nil {
		sh.panicErr = err
	}
	sh.mu.Unlock()
	ctl.Stop(err.Error())
}

type factorer struct {
	g       *graph.Graph
	dem     graph.Demand
	nw      *maxflow.Network
	handles []maxflow.Handle
	state   []int8
	sh      *factorShared
	ctl     *anytime.Ctl
	hook    func(uint64)

	// Per-worker amortized budget accounting.
	nodes     uint64 // branch nodes visited by this worker
	pending   uint64 // nodes not yet charged to the controller
	callsMark int64  // nw.Stats.MaxFlowCalls at the last charge
}

// clone returns an independent solver positioned at the same partial
// state; the split machinery (sem, stats sink) is shared.
func (f *factorer) clone() *factorer {
	c := *f
	c.nw = f.nw.Clone()
	c.state = append([]int8(nil), f.state...)
	c.nodes, c.pending, c.callsMark = 0, 0, 0
	return &c
}

// flushInto merges a child's private counters into the shared sink.
func (f *factorer) flushInto(stats *Stats) {
	stats.MaxFlowCalls += f.nw.Stats.MaxFlowCalls
	stats.AugmentUnits += f.nw.Stats.AugmentUnits
	f.sh.mu.Lock()
	f.sh.childStats.add(*stats)
	f.sh.mu.Unlock()
}

// flushCharge reports this worker's outstanding work to the controller.
func (f *factorer) flushCharge() {
	if f.pending > 0 {
		f.ctl.Charge(f.pending, f.nw.Stats.MaxFlowCalls-f.callsMark)
		f.pending, f.callsMark = 0, f.nw.Stats.MaxFlowCalls
	}
}

// setPhase enables the links according to the optimistic (undecided = up)
// or pessimistic (undecided = down) view.
func (f *factorer) setPhase(optimistic bool) {
	for i, st := range f.state {
		on := st == stUp || (optimistic && st == stUndecided)
		f.nw.SetEnabled(f.handles[i], on)
	}
}

// rec returns the conditional reliability of the current partial state,
// weighted by branchProb (the probability of reaching this state).
// The returned value is already multiplied by branchProb. Mass proven
// non-admitting is recorded in stats.refuted; an interrupted branch
// contributes to neither side, leaving its mass in the certified gap.
func (f *factorer) rec(branchProb float64, depth int, stats *Stats) float64 {
	f.nodes++
	f.pending++
	if f.pending >= factorChargeEvery {
		calls := f.nw.Stats.MaxFlowCalls - f.callsMark
		f.callsMark = f.nw.Stats.MaxFlowCalls
		f.ctl.Charge(f.pending, calls)
		f.pending = 0
	}
	if f.ctl.Stopped() {
		return 0 // unexplored: stays inside the certified gap
	}
	stats.Configs++
	if f.hook != nil {
		f.hook(f.nodes)
	}
	s, t, d := int32(f.dem.S), int32(f.dem.T), f.dem.D

	// Optimistic check: can the demand be met at all down this branch?
	f.setPhase(true)
	if f.nw.MaxFlow(s, t, d) < d {
		stats.refuted += branchProb
		return 0
	}
	// Remember which links the optimistic flow uses, to pick the pivot.
	pivot := -1
	for i, st := range f.state {
		if st == stUndecided && f.nw.FlowOn(f.handles[i]) != 0 {
			pivot = i
			break
		}
	}
	// Pessimistic check: is the demand met even if every undecided link
	// fails? Then all remaining mass succeeds.
	f.setPhase(false)
	if f.nw.MaxFlow(s, t, d) >= d {
		stats.Admitting++
		return branchProb
	}
	if pivot == -1 {
		// No undecided link carries optimistic flow, yet optimistic
		// succeeds and pessimistic fails — impossible, because the two
		// phases then solve the same network. Guard anyway by picking the
		// first undecided link.
		for i, st := range f.state {
			if st == stUndecided {
				pivot = i
				break
			}
		}
		if pivot == -1 {
			// Fully decided and pessimistic == optimistic failed above.
			stats.refuted += branchProb
			return 0
		}
	}
	p := f.g.Edge(graph.EdgeID(pivot)).PFail

	// Try to hand the down-branch to another worker near the top of the
	// tree; fall through to sequential evaluation when the pool is busy.
	if depth < f.sh.splitDepth {
		select {
		case f.sh.sem <- struct{}{}:
			child := f.clone()
			child.state[pivot] = stDown
			ch := make(chan float64, 1)
			go func() {
				defer func() { <-f.sh.sem }()
				defer func() {
					if r := recover(); r != nil {
						f.sh.recordPanic(f.ctl, child.nodes, r)
						ch <- 0
					}
				}()
				var childStats Stats
				v := child.rec(branchProb*p, depth+1, &childStats)
				child.flushCharge()
				child.flushInto(&childStats) // flush before signalling done
				ch <- v
			}()
			f.state[pivot] = stUp
			up := f.rec(branchProb*(1-p), depth+1, stats)
			f.state[pivot] = stUndecided
			return up + <-ch
		default:
		}
	}

	var total float64
	f.state[pivot] = stUp
	total += f.rec(branchProb*(1-p), depth+1, stats)
	f.state[pivot] = stDown
	total += f.rec(branchProb*p, depth+1, stats)
	f.state[pivot] = stUndecided
	return total
}

// Admits reports whether the subgraph of g consisting of the links with
// alive bit set admits the demand, using one max-flow computation.
func Admits(g *graph.Graph, dem graph.Demand, alive conf.Mask) (bool, error) {
	if err := validate(g, dem); err != nil {
		return false, err
	}
	if g.NumEdges() > conf.MaxEnumEdges {
		return false, &conf.ErrTooManyEdges{N: g.NumEdges(), Where: "graph"}
	}
	nw, handles := maxflow.FromGraph(g)
	for i := range handles {
		nw.SetEnabled(handles[i], alive&(1<<uint(i)) != 0)
	}
	return nw.MaxFlow(int32(dem.S), int32(dem.T), dem.D) >= dem.D, nil
}
