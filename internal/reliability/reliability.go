// Package reliability implements reference algorithms for the flow
// reliability of a capacitated network with independent link failures:
//
//   - Naive: the paper's baseline — enumerate all 2^|E| failure
//     configurations, test each with a max-flow computation, and sum the
//     probabilities of the admitting ones (Figure 1), in parallel over
//     contiguous chunks of the configuration space.
//   - NaiveExact: the same enumeration in exact rational arithmetic; the
//     validation oracle for every floating-point engine.
//   - Factoring: pivotal (conditioning) decomposition with two-sided
//     max-flow pruning — the classical exact method, included as a
//     stronger baseline than plain enumeration.
//   - MonteCarlo: an unbiased sampling estimator with a standard error.
//   - Bounds: cheap guaranteed lower/upper bounds (disjoint delivery
//     subgraphs / cut survival).
//
// All engines answer the same question: the probability that the surviving
// subgraph admits flow demand D = (s, t, d), i.e. has s–t max flow ≥ d.
package reliability

import (
	"fmt"
	"runtime"

	"flowrel/internal/anytime"
	"flowrel/internal/graph"
)

// Options tunes an engine run.
type Options struct {
	// Parallelism is the number of worker goroutines for the enumeration
	// and sampling engines; ≤ 0 means runtime.GOMAXPROCS(0).
	Parallelism int
	// Ctl, when non-nil, threads cooperative cancellation and compute
	// budgets through the worker loops (checked every anytime.CheckEvery
	// configurations). Interrupted engines return a partial Result with a
	// certified [Lo, Hi] interval instead of an error.
	Ctl *anytime.Ctl
	// TestHook, when non-nil, is invoked inside the worker loops before
	// each configuration's feasibility check with the configuration index
	// (or branch-node count for the factoring engine). Tests use it to
	// inject faults — e.g. panics — into the hot path.
	TestHook func(configIndex uint64)
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports the work an engine performed.
type Stats struct {
	Configs      uint64 // failure configurations examined
	Admitting    uint64 // configurations that admitted the demand
	MaxFlowCalls int64  // max-flow solver invocations
	AugmentUnits int64  // total flow units pushed by the solver

	// refuted is the probability mass proven non-admitting — the
	// factoring engine's bookkeeping for certified intervals on
	// interrupted runs.
	refuted float64
}

func (s *Stats) add(o Stats) {
	s.Configs += o.Configs
	s.Admitting += o.Admitting
	s.MaxFlowCalls += o.MaxFlowCalls
	s.AugmentUnits += o.AugmentUnits
	s.refuted += o.refuted
}

// Result is an exact engine's answer.
type Result struct {
	Reliability float64
	Stats       Stats

	// Partial reports that the run was interrupted (context cancellation,
	// deadline or budget exhaustion). [Lo, Hi] is then a certified
	// interval containing the true reliability: Lo is the probability
	// mass proven admitting, 1−Hi the mass proven failing, and the gap is
	// the unexplored remainder. Reliability is the midpoint — the best
	// single guess. On complete runs Partial is false and
	// Lo = Hi = Reliability.
	Partial bool
	Lo, Hi  float64
	// Reason says why an interrupted run stopped.
	Reason string
}

// Seal finalizes a Result: on complete runs it pins Lo = Hi =
// Reliability; on interrupted runs it certifies [Lo, Hi] from the proven
// admitting mass lo and proven failing mass refuted, and reports the
// midpoint as the point estimate. The enumeration engines of other
// packages (multicast) seal their intervals with it too.
func (r *Result) Seal(ctl *anytime.Ctl, lo, refuted float64) {
	if !ctl.Stopped() {
		r.Lo, r.Hi = r.Reliability, r.Reliability
		return
	}
	hi := 1 - refuted
	// Floating-point guards; mathematically 0 ≤ lo ≤ hi ≤ 1.
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo
	}
	r.Partial = true
	r.Lo, r.Hi = lo, hi
	r.Reliability = (lo + hi) / 2
	r.Reason = ctl.Reason()
}

func validate(g *graph.Graph, dem graph.Demand) error {
	if g == nil {
		return fmt.Errorf("reliability: nil graph")
	}
	return dem.Validate(g)
}
