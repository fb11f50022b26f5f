package flowrel

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/assign"
	"flowrel/internal/chain"
	"flowrel/internal/mincut"
	"flowrel/internal/reduce"
	"flowrel/internal/reliability"
	"flowrel/internal/stats"
)

// Assignment is one distribution of the d sub-streams over the bottleneck
// links (§III-B of the paper).
type Assignment = assign.Assignment

// Engine selects a reliability algorithm.
type Engine int

const (
	// EngineAuto uses the bottleneck decomposition when a small balanced
	// minimal cut exists, then tries the chain decomposition (a sequence
	// of cuts), and falls back to the factoring solver.
	EngineAuto Engine = iota
	// EngineCore is the paper's bottleneck-decomposition algorithm:
	// O(2^{α|E|}·|V|·|E|) with a constant-size bottleneck link set.
	EngineCore
	// EngineNaive enumerates all 2^{|E|} failure configurations (the
	// paper's baseline, Fig. 1).
	EngineNaive
	// EngineFactoring conditions on one link at a time with two-sided
	// max-flow pruning (the classical exact method).
	EngineFactoring
	// EngineChain decomposes along a sequence of disjoint minimal cuts
	// (the generalization of EngineCore to delivery chains); cuts are
	// discovered automatically.
	EngineChain
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineCore:
		return "core"
	case EngineNaive:
		return "naive"
	case EngineFactoring:
		return "factoring"
	case EngineChain:
		return "chain"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Config tunes an exact reliability computation.
type Config struct {
	Engine Engine
	// Bottleneck optionally fixes the bottleneck link set for EngineCore;
	// nil lets the solver search for the most balanced minimal cut.
	// Validate rejects a link outside the graph or listed twice.
	Bottleneck []EdgeID
	// MaxBottleneck bounds the bottleneck search (default 3).
	MaxBottleneck int
	// MaxSideEdges bounds the enumerated component size for EngineCore,
	// and each segment for EngineChain (default 20; time and memory grow
	// as 2^{MaxSideEdges}). Both refuse past 26 links whatever this says.
	MaxSideEdges int
	// MaxAssignmentSet bounds the assignment family size |𝒟| for
	// EngineCore, and each cut's for EngineChain (default 20 and 16; 20
	// is both engines' ceiling).
	MaxAssignmentSet int
	// Parallelism is the worker count for the enumeration engines
	// (≤ 0 = GOMAXPROCS): naive enumeration and factoring, and the
	// default for a compiled Plan's batch evaluation. EngineCore and
	// EngineChain build their side arrays and segments on the calling
	// goroutine.
	Parallelism int
	// Reduce applies the exact reliability-preserving reductions before
	// solving. The reliability is unchanged; any link IDs in the Report
	// (Cut, Assignments' indices) then refer to the reduced instance, so
	// leave this off when you need them to address the original graph.
	Reduce bool
	// Budget bounds the work of a ComputeCtx call (configurations,
	// max-flow calls, wall clock); the zero value is unlimited. Plain
	// Compute ignores it only in the sense that it passes no context —
	// the budget itself is honoured there too.
	Budget Budget
	// Tracer, when non-nil, receives phase, budget-consumption and
	// ladder-rung events as the solver runs. Hooks execute on solver
	// goroutines; keep them fast and concurrency-safe.
	Tracer Tracer
	// CollectStats attaches a SolveStats observability report to
	// Report.Stats: wall time, phase timings, ladder transitions and the
	// budget-consumption curve. Collection costs one extra tracer
	// dispatch per event; leave it off on latency-critical paths.
	CollectStats bool
}

// Validate rejects nonsensical configurations with actionable messages
// before any work starts. The graph may be nil to skip the
// size-dependent checks; Compute and ComputeCtx validate automatically.
func (cfg Config) Validate(g *Graph) error {
	if cfg.MaxBottleneck < 0 {
		return fmt.Errorf("flowrel: MaxBottleneck %d is negative; use 0 for the default (3) or a positive cut-size bound", cfg.MaxBottleneck)
	}
	if cfg.MaxSideEdges < 0 {
		return fmt.Errorf("flowrel: MaxSideEdges %d is negative; use 0 for the default (20) or a positive component-size bound", cfg.MaxSideEdges)
	}
	if cfg.MaxAssignmentSet < 0 {
		return fmt.Errorf("flowrel: MaxAssignmentSet %d is negative; use 0 for the default (20) or a positive assignment-family bound", cfg.MaxAssignmentSet)
	}
	if g != nil && cfg.MaxBottleneck > g.NumEdges() {
		return fmt.Errorf("flowrel: MaxBottleneck %d exceeds the graph's %d links; a minimal cut never has more links than the graph", cfg.MaxBottleneck, g.NumEdges())
	}
	if g != nil && len(cfg.Bottleneck) > 0 {
		links := slices.Clone(cfg.Bottleneck)
		slices.Sort(links)
		for i, e := range links {
			if e < 0 || int(e) >= g.NumEdges() {
				return fmt.Errorf("flowrel: Bottleneck link %d out of range [0,%d)", e, g.NumEdges())
			}
			if i > 0 && e == links[i-1] {
				return fmt.Errorf("flowrel: Bottleneck lists link %d twice", e)
			}
		}
	}
	if err := cfg.Budget.Validate(); err != nil {
		return err
	}
	return nil
}

// Report is the result of an exact computation.
type Report struct {
	Reliability float64
	// Engine is the algorithm that actually ran (relevant for EngineAuto).
	Engine Engine
	// Cut, K, Alpha and Assignments describe the decomposition when
	// EngineCore ran.
	Cut         []EdgeID
	K           int
	Alpha       float64
	Assignments []Assignment
	// MaxFlowCalls counts max-flow solver invocations.
	MaxFlowCalls int64
	// Configs counts the failure configurations (or factoring branch
	// nodes) examined.
	Configs uint64
	// Partial reports an interrupted anytime run (ComputeCtx with a
	// cancelled context or an exhausted Budget). [Lo, Hi] is then a
	// certified interval containing the true reliability and Reliability
	// a point estimate inside it; complete runs have Lo == Hi ==
	// Reliability and Partial false.
	Partial bool
	Lo, Hi  float64
	// Rung names the degradation-ladder rung that produced the answer
	// when EngineAuto ran under ComputeCtx: "core", "chain", "factoring",
	// "most-probable-states" or "importance-sampling".
	Rung string
	// Reason explains an interruption and why earlier ladder rungs did
	// not answer.
	Reason string
	// Stats is the per-call observability report; nil unless
	// Config.CollectStats was set.
	Stats *SolveStats

	// planCacheHit, augmentingPaths and the pruning counters feed
	// SolveStats; kept unexported so the public Report surface stays the
	// documented fields above.
	planCacheHit    bool
	augmentingPaths int64
	// prunedCapacity / prunedClosure / prunedOffPath /
	// frontierMaxFlowCalls describe the frontier side engine's work
	// split: pairs discarded by the capacity bound, pairs closed from a
	// realized submask, pairs copied past off-path links, and the
	// max-flow calls actually paid (all zero on a cache hit or a
	// non-frontier engine).
	prunedCapacity       int64
	prunedClosure        int64
	prunedOffPath        int64
	frontierMaxFlowCalls int64
	// onPathLinks is, per side, the links of the answering plan that can
	// carry flow (core engine only).
	onPathLinks [2]int
	// kernelTerms / kernelSegments / kernelLanes describe the compiled
	// evaluate-phase kernel of the plan that answered (all zero when the
	// plan is trivial, or a non-core engine ran):
	// the flattened inclusion–exclusion table size, the (row word,
	// realized set) runs of the two sides, and the batch block width.
	kernelTerms    int64
	kernelSegments int64
	kernelLanes    int64
}

// Reliability computes the exact reliability of g with respect to dem with
// automatic engine selection. Use Compute for control and work statistics.
func Reliability(g *Graph, dem Demand) (float64, error) {
	rep, err := Compute(g, dem, Config{})
	return rep.Reliability, err
}

// Compute computes the exact reliability with the configured engine. It
// honours cfg.Budget but passes no context; use ComputeCtx for
// cancellation.
func Compute(g *Graph, dem Demand, cfg Config) (Report, error) {
	return ComputeCtx(context.Background(), g, dem, cfg)
}

// ComputeCtx is the anytime form of Compute: the computation stops
// cooperatively when ctx is cancelled, cfg.Budget.SoftDeadline passes, or
// a configuration/max-flow-call budget is exhausted. The engines that can
// certify a partial answer (factoring, naive enumeration) then return a
// Report with Partial set and a guaranteed interval [Lo, Hi] containing
// the true reliability; the structural decompositions (core, chain)
// return an error wrapping ErrInterrupted instead, because a half-built
// side array certifies nothing.
//
// With EngineAuto the call never wastes an interruption: it walks a
// degradation ladder core → chain → factoring → most-probable-states
// bounds → importance-sampled Monte Carlo, giving each rung a slice of
// the remaining budget, and reports the best certified interval plus the
// rung that produced the final answer (Report.Rung) and why earlier rungs
// did not (Report.Reason).
func ComputeCtx(ctx context.Context, g *Graph, dem Demand, cfg Config) (Report, error) {
	if err := cfg.Validate(g); err != nil {
		return Report{}, err
	}
	if cfg.Reduce {
		red, err := reduce.Apply(g, dem)
		if err != nil {
			return Report{}, err
		}
		g = red.G
		dem = red.Demand
		cfg.Reduce = false
		if cfg.Bottleneck != nil {
			return Report{}, fmt.Errorf("flowrel: Reduce renumbers links; an explicit Bottleneck cannot be combined with it")
		}
	}
	ctl := anytime.New(ctx, cfg.Budget)

	// Install the tracer on the controller — the one object threaded
	// through every engine — teeing in a recorder when the caller asked
	// for a SolveStats report.
	var rec *stats.Recorder
	tr := cfg.Tracer
	if cfg.CollectStats {
		rec = stats.NewRecorder()
		tr = stats.Tee(tr, rec)
	}
	ctl.SetTracer(tr)
	start := time.Now()

	rep, err := computeWith(g, dem, cfg, ctl)
	if err != nil {
		return Report{}, err
	}
	if rec != nil {
		rep.Stats = solveStatsFrom(rec, time.Since(start), rep)
	}
	return rep, nil
}

// computeWith dispatches to the configured engine; ctl carries the
// budget, cancellation and tracer.
func computeWith(g *Graph, dem Demand, cfg Config, ctl *anytime.Ctl) (Report, error) {
	switch cfg.Engine {
	case EngineAuto:
		return computeLadder(g, dem, cfg, ctl)
	case EngineCore:
		return computeCore(g, dem, cfg, ctl)
	case EngineChain:
		return computeChain(g, dem, cfg, ctl)
	case EngineNaive:
		res, err := reliability.Naive(g, dem, reliability.Options{
			Parallelism: cfg.Parallelism,
			Ctl:         ctl,
		})
		if err != nil {
			return Report{}, err
		}
		return Report{
			Reliability:  res.Reliability,
			Engine:       cfg.Engine,
			MaxFlowCalls: res.Stats.MaxFlowCalls,
			Configs:      res.Stats.Configs,
			Partial:      res.Partial,
			Lo:           res.Lo,
			Hi:           res.Hi,
			Reason:       res.Reason,
		}, nil
	case EngineFactoring:
		return computeFactoring(g, dem, cfg, ctl)
	}
	return Report{}, fmt.Errorf("flowrel: unknown engine %v", cfg.Engine)
}

// computeCore answers through the plan cache: a cache hit skips the entire
// side-array construction (zero max-flow calls) and only re-aggregates the
// probabilities, so repeated Compute calls on the same structure cost
// microseconds. A miss compiles, caches, and reports the compile work.
func computeCore(g *Graph, dem Demand, cfg Config, ctl *anytime.Ctl) (Report, error) {
	plan, hit, err := planFor(ctl, g, dem, cfg)
	if err != nil {
		return Report{}, err
	}
	r, err := plan.Eval(pfailOf(g))
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Reliability: r,
		Engine:      EngineCore,
		Cut:         append([]EdgeID(nil), plan.Cut...),
		K:           plan.K(),
		Alpha:       plan.Alpha,
		Assignments: plan.Assignments,
		Lo:          r,
		Hi:          r,
	}
	rep.planCacheHit = hit
	if !hit {
		rep.MaxFlowCalls = plan.Stats.MaxFlowCalls
		rep.Configs = plan.Stats.SideConfigs[0] + plan.Stats.SideConfigs[1]
		rep.augmentingPaths = plan.Stats.AugmentingPaths
		rep.prunedCapacity = plan.Stats.PrunedCapacity
		rep.prunedClosure = plan.Stats.PrunedClosure
		rep.prunedOffPath = plan.Stats.PrunedOffPath
		rep.frontierMaxFlowCalls = plan.Stats.FrontierMaxFlowCalls
	}
	// The on-path counts and the kernel fields describe the plan that
	// answered, so they report even on a cache hit — the cached plan's
	// tables did the work.
	rep.onPathLinks = plan.Stats.OnPathLinks
	rep.kernelTerms = plan.Stats.KernelTerms
	rep.kernelSegments = plan.Stats.KernelSegments
	rep.kernelLanes = plan.Stats.KernelLanes
	return rep, nil
}

func computeChain(g *Graph, dem Demand, cfg Config, ctl *anytime.Ctl) (Report, error) {
	maxCut := cfg.MaxBottleneck
	if maxCut <= 0 {
		maxCut = 3
	}
	cuts, err := chain.Find(g, dem, maxCut, 0)
	if err != nil {
		return Report{}, err
	}
	res, err := chain.Solve(g, dem, cuts, chain.Options{
		MaxSegmentEdges:  cfg.MaxSideEdges,
		MaxAssignmentSet: cfg.MaxAssignmentSet,
		Ctl:              ctl,
	})
	if err != nil {
		return Report{}, err
	}
	var flat []EdgeID
	for _, cut := range res.Cuts {
		flat = append(flat, cut...)
	}
	return Report{
		Reliability:     res.Reliability,
		Engine:          EngineChain,
		Cut:             flat,
		K:               len(flat),
		MaxFlowCalls:    res.MaxFlowCalls,
		Configs:         res.Configs,
		augmentingPaths: res.AugmentingPaths,
		Lo:              res.Reliability,
		Hi:              res.Reliability,
	}, nil
}

func computeFactoring(g *Graph, dem Demand, cfg Config, ctl *anytime.Ctl) (Report, error) {
	res, err := reliability.Factoring(g, dem, reliability.Options{Parallelism: cfg.Parallelism, Ctl: ctl})
	if err != nil {
		return Report{}, err
	}
	return Report{
		Reliability:  res.Reliability,
		Engine:       EngineFactoring,
		MaxFlowCalls: res.Stats.MaxFlowCalls,
		Configs:      res.Stats.Configs,
		Partial:      res.Partial,
		Lo:           res.Lo,
		Hi:           res.Hi,
		Reason:       res.Reason,
	}, nil
}

// Exact computes the reliability in exact rational arithmetic by full
// enumeration — the validation oracle. Exponential in |E| and sequential;
// use only on small graphs.
func Exact(g *Graph, dem Demand) (*big.Rat, error) {
	return reliability.NaiveExact(g, dem)
}

// Estimate is a Monte Carlo reliability estimate with a standard error.
type Estimate = reliability.Estimate

// MonteCarlo estimates the reliability from `samples` random failure
// configurations; deterministic per seed regardless of parallelism. It
// scales to graphs far beyond the exact engines.
func MonteCarlo(g *Graph, dem Demand, samples int, seed int64) (Estimate, error) {
	return reliability.MonteCarlo(g, dem, samples, seed, reliability.Options{})
}

// Bound is a guaranteed reliability interval.
type Bound = reliability.Bound

// Bounds computes guaranteed lower and upper reliability bounds in
// polynomial time (given the minimal-cut enumeration budget maxCutSize).
func Bounds(g *Graph, dem Demand, maxCutSize int) (Bound, error) {
	return reliability.Bounds(g, dem, maxCutSize)
}

// Bottleneck is a validated α-bottleneck split: a minimal s–t cut whose
// removal leaves exactly two components.
type Bottleneck = mincut.Bottleneck

// FindBottleneck searches for the α-bottleneck link set with the most
// balanced split among minimal s–t cuts of at most maxSize links.
func FindBottleneck(g *Graph, s, t NodeID, maxSize int) (*Bottleneck, error) {
	return mincut.Find(g, s, t, maxSize)
}

// SplitBottleneck validates an explicit bottleneck link set.
func SplitBottleneck(g *Graph, s, t NodeID, cut []EdgeID) (*Bottleneck, error) {
	return mincut.Split(g, s, t, cut)
}

// MinCuts enumerates every minimal s–t cut with at most maxSize links.
func MinCuts(g *Graph, s, t NodeID, maxSize int) [][]EdgeID {
	return mincut.EnumerateMinimal(g, s, t, maxSize)
}
