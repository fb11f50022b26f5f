package flowrel

import (
	"expvar"
	"sync"
	"time"

	"flowrel/internal/stats"
)

// Tracer receives solver progress events: phase completions (side-array
// builds, chain segments, cut searches), configuration-budget consumption
// ticks, and degradation-ladder rung transitions. Implementations must be
// safe for concurrent use — enumeration workers charge budgets in
// parallel — and fast: hooks run on the solver's goroutines. A nil Tracer
// costs one branch per hook site.
type Tracer = stats.Tracer

// PhaseEvent reports one completed solver phase (see Tracer).
type PhaseEvent = stats.PhaseEvent

// ConfigEvent reports cumulative work at a budget-charge point (see Tracer).
type ConfigEvent = stats.ConfigEvent

// RungEvent reports a degradation-ladder rung transition (see Tracer).
type RungEvent = stats.RungEvent

// StatsReport is a point-in-time snapshot of the process-wide solver
// metrics registry (counters, histograms, timers). Snapshots are cheap
// and diffable: s.Delta(prev) isolates one window's activity.
type StatsReport = stats.Snapshot

// StatsSnapshot captures the process-wide solver metrics: compile and
// evaluation counts, per-layer max-flow and augmenting-path totals, plan
// cache traffic, and latency histograms. Counters accumulate since
// process start; diff two snapshots to scope a window.
func StatsSnapshot() StatsReport {
	return stats.Default.Snapshot()
}

// SetStatsEnabled turns the process-wide metrics registry on (the
// default) or off. Disabled, every metric update is a single atomic load
// and branch — the configuration benchmarked by
// BenchmarkNilTracerOverhead's baseline.
func SetStatsEnabled(on bool) {
	stats.Default.SetEnabled(on)
}

// StatsEnabled reports whether the process-wide metrics registry is
// recording.
func StatsEnabled() bool {
	return stats.Default.Enabled()
}

var publishExpvarOnce sync.Once

// PublishExpvar registers the solver metrics registry and the plan-cache
// counters with the standard expvar page, under "flowrel.stats" and
// "flowrel.plancache". Safe to call more than once; only the first call
// registers. Serving /debug/vars (e.g. relcalc -serve) then exposes them
// alongside the runtime's memstats.
func PublishExpvar() {
	publishExpvarOnce.Do(func() {
		expvar.Publish("flowrel.stats", expvar.Func(func() any {
			return stats.Default.Snapshot()
		}))
		expvar.Publish("flowrel.plancache", expvar.Func(func() any {
			return PlanCacheSnapshot()
		}))
	})
}

// SolveStats is the per-call observability report attached to
// Report.Stats when Config.CollectStats is set. All durations are
// nanoseconds for stable JSON.
type SolveStats struct {
	// TotalNanos is the wall time of the whole ComputeCtx call.
	TotalNanos int64 `json:"total_ns"`
	// Configs and MaxFlowCalls mirror the Report counters.
	Configs      uint64 `json:"configs"`
	MaxFlowCalls int64  `json:"max_flow_calls"`
	// AugmentingPaths counts augmenting paths found across every max-flow
	// invocation of this call (zero on a plan-cache hit: evaluation runs
	// no flows).
	AugmentingPaths int64 `json:"augmenting_paths"`
	// PlanCacheHit reports whether the core engine answered from a cached
	// compiled plan.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// PrunedCapacity / PrunedClosure count (assignment, configuration)
	// pairs the frontier side engine decided without a max-flow call —
	// capacity bound (unrealizable) and superset closure (realized) — and
	// FrontierMaxFlowCalls the solves it actually paid. All zero on a
	// plan-cache hit or when a dense side engine ran.
	PrunedCapacity       int64 `json:"pruned_capacity"`
	PrunedClosure        int64 `json:"pruned_closure"`
	FrontierMaxFlowCalls int64 `json:"frontier_max_flow_calls"`
	// KernelTerms / KernelSegments / KernelLanes describe the compiled
	// evaluate-phase kernel of the answering plan (core engine only; all
	// zero only for a trivial plan, whose cut cannot carry the demand):
	// flattened inclusion–exclusion terms, the set sums one evaluation
	// adds across both sides (one per realized set present in each
	// 64-mask row word), and the batch block width. Reported on cache
	// hits too — the cached plan's tables did this call's aggregation.
	KernelTerms    int64 `json:"kernel_terms"`
	KernelSegments int64 `json:"kernel_segments"`
	KernelLanes    int64 `json:"kernel_lanes"`
	// Phases lists completed solver phases in completion order.
	Phases []PhaseStat `json:"phases"`
	// Rungs lists degradation-ladder transitions (EngineAuto only).
	Rungs []RungStat `json:"rungs"`
	// BudgetCurve is the cumulative work-over-time curve sampled at
	// budget-charge points, bounded to a fixed number of points.
	BudgetCurve []CurveStat `json:"budget_curve"`
}

// PhaseStat is one completed solver phase.
type PhaseStat struct {
	Engine        string `json:"engine"`
	Phase         string `json:"phase"`
	DurationNanos int64  `json:"duration_ns"`
	Configs       uint64 `json:"configs"`
	MaxFlowCalls  int64  `json:"max_flow_calls"`
}

// RungStat is one degradation-ladder rung transition.
type RungStat struct {
	Rung          string `json:"rung"`
	Outcome       string `json:"outcome"`
	Reason        string `json:"reason,omitempty"`
	DurationNanos int64  `json:"duration_ns"`
}

// CurveStat is one point of the budget-consumption curve: cumulative
// work observed at a charge point.
type CurveStat struct {
	ElapsedNanos int64  `json:"elapsed_ns"`
	Configs      uint64 `json:"configs"`
	MaxFlowCalls int64  `json:"max_flow_calls"`
}

// solveStatsFrom assembles the public SolveStats from a recorder's
// accumulated events plus the per-call report fields.
func solveStatsFrom(rec *stats.Recorder, elapsed time.Duration, rep Report) *SolveStats {
	s := &SolveStats{
		TotalNanos:           elapsed.Nanoseconds(),
		Configs:              rep.Configs,
		MaxFlowCalls:         rep.MaxFlowCalls,
		AugmentingPaths:      rep.augmentingPaths,
		PlanCacheHit:         rep.planCacheHit,
		PrunedCapacity:       rep.prunedCapacity,
		PrunedClosure:        rep.prunedClosure,
		FrontierMaxFlowCalls: rep.frontierMaxFlowCalls,
		KernelTerms:          rep.kernelTerms,
		KernelSegments:       rep.kernelSegments,
		KernelLanes:          rep.kernelLanes,
		Phases:               []PhaseStat{},
		Rungs:                []RungStat{},
		BudgetCurve:          []CurveStat{},
	}
	for _, p := range rec.Phases() {
		s.Phases = append(s.Phases, PhaseStat{
			Engine:        p.Engine,
			Phase:         p.Phase,
			DurationNanos: p.Duration.Nanoseconds(),
			Configs:       p.Configs,
			MaxFlowCalls:  p.MaxFlowCalls,
		})
	}
	for _, r := range rec.Rungs() {
		s.Rungs = append(s.Rungs, RungStat{
			Rung:          r.Rung,
			Outcome:       r.Outcome,
			Reason:        r.Reason,
			DurationNanos: r.Duration.Nanoseconds(),
		})
	}
	for _, c := range rec.Curve() {
		s.BudgetCurve = append(s.BudgetCurve, CurveStat{
			ElapsedNanos: c.Elapsed.Nanoseconds(),
			Configs:      c.Configs,
			MaxFlowCalls: c.MaxFlowCalls,
		})
	}
	return s
}
