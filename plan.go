package flowrel

import (
	"context"
	"fmt"

	"flowrel/internal/anytime"
	"flowrel/internal/core"
	"flowrel/internal/graph"
)

// Plan is a compiled reliability plan: the structure phase of the
// bottleneck decomposition — cut search, assignment enumeration and the
// O(2^{α|E|}·|V|·|E|) side realization arrays, kept as one bit row per
// assignment and grouped into the evaluate kernel's tables — run once and
// frozen. Every subsequent probability-only question (a sweep point, a
// conditional with some links forced up or down, a shared-risk scenario)
// is a Plan.Eval: pure aggregation, no max-flow calls, microseconds
// instead of a fresh solve. Plans are immutable and safe for concurrent
// use.
//
// Probabilities are evaluate-phase inputs; topology and capacities are
// compile-phase inputs. Changing a link's failure probability needs only a
// new vector, changing its capacity needs a new CompilePlan.
type Plan struct {
	core *core.Plan
	// base holds the failure probabilities of the graph this Plan was
	// requested for. The cached core.Plan may have been compiled from a
	// structurally identical graph with different probabilities, so the
	// wrapper carries its own baseline.
	base        []float64
	parallelism int
	// cached records whether the compile phase was skipped entirely
	// because the plan cache already held this structure.
	cached bool
	// g, dem and cfg are the instance this Plan answers for — kept so
	// Mutate can delta-compile successors without asking the caller to
	// re-supply what the Plan already knows.
	g   *Graph
	dem Demand
	cfg Config
}

// Mutation is one single-link change to a graph: a capacity update, a
// link addition or a link removal. It is the unit of overlay churn the
// delta compiler (Plan.Mutate) understands.
type Mutation = graph.Mutation

// MutationKind discriminates Mutation variants.
type MutationKind = graph.MutationKind

// Re-exported mutation kinds.
const (
	MutateCapacity = graph.MutateCapacity
	MutateAdd      = graph.MutateAdd
	MutateRemove   = graph.MutateRemove
)

// CompilePlan compiles the structure of (g, dem) into a reusable Plan,
// consulting the process-wide plan cache first: if the same topology,
// capacities and demand were compiled before, no max-flow work runs at
// all. Only the bottleneck-decomposition engine compiles to a plan; cfg's
// Engine field is ignored and cfg.Reduce is rejected (reductions renumber
// links, which would silently misindex every Eval vector).
func CompilePlan(g *Graph, dem Demand, cfg Config) (*Plan, error) {
	return CompilePlanCtx(context.Background(), g, dem, cfg)
}

// CompilePlanCtx is CompilePlan honouring a context and cfg.Budget during
// the compile phase. An interrupted compile returns an error wrapping
// ErrInterrupted — a half-built side array certifies nothing.
func CompilePlanCtx(ctx context.Context, g *Graph, dem Demand, cfg Config) (*Plan, error) {
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	if cfg.Reduce {
		return nil, fmt.Errorf("flowrel: CompilePlan does not support Reduce; reductions renumber links, so Eval probability vectors would no longer address the original graph")
	}
	if g == nil {
		return nil, fmt.Errorf("flowrel: CompilePlan on a nil graph")
	}
	ctl := anytime.New(ctx, cfg.Budget)
	cp, hit, err := planFor(ctl, g, dem, cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{core: cp, base: pfailOf(g), parallelism: cfg.Parallelism, cached: hit, g: g, dem: dem, cfg: cfg}, nil
}

// Mutate derives the Plan for the graph after one single-link change —
// a capacity update, a link addition or a link removal — reusing as much
// of this Plan's compile work as the change provably leaves valid. When
// the mutation stays off the bottleneck cut, only the touched side's
// affected configurations re-run max-flows; the other side's realization
// array and the kernel's tables for it transfer verbatim. The result is
// bit-identical to CompilePlan on the mutated graph, cheaper by the work
// the parent already did. The parent Plan is unchanged and remains valid.
//
// The successor is a full citizen: it is inserted into the plan cache
// under the mutated graph's own structural hash, and can itself be
// mutated, chaining through arbitrary churn. Mutations that invalidate
// the parent's decomposition (a cut link changed or removed, a structural
// re-split) fall back to a cold compile transparently — the result is
// still correct, just not cheaper.
func (p *Plan) Mutate(m Mutation) (*Plan, error) {
	return p.MutateCtx(context.Background(), m, p.cfg.Budget)
}

// MutateCtx is Mutate honouring a context and an explicit work budget for
// the delta compile. The budget meters configurations exactly as a cold
// compile of the mutated graph would, so a budget sufficient cold is
// sufficient here.
func (p *Plan) MutateCtx(ctx context.Context, m Mutation, b Budget) (*Plan, error) {
	g2, remap, err := m.Apply(p.g)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	cfg.Budget = b
	if cfg.Bottleneck != nil {
		// A pinned bottleneck names parent-graph links; carry it through
		// the mutation's link renumbering.
		pinned := make([]EdgeID, len(cfg.Bottleneck))
		for i, id := range cfg.Bottleneck {
			if int(id) >= len(remap) || remap[id] < 0 {
				return nil, fmt.Errorf("flowrel: mutation %v removes pinned bottleneck link %d", m, id)
			}
			pinned[i] = remap[id]
		}
		cfg.Bottleneck = pinned
	}
	ctl := anytime.New(ctx, cfg.Budget)
	cp, hit, err := planForMutate(ctl, p.core, p.g, g2, p.dem, cfg, m, remap)
	if err != nil {
		return nil, err
	}
	return &Plan{core: cp, base: pfailOf(g2), parallelism: cfg.Parallelism, cached: hit, g: g2, dem: p.dem, cfg: cfg}, nil
}

// Version is the Plan's position in its mutation chain: 0 for a cold
// compile, parent version + 1 for each Mutate. A cache hit returns the
// version of whichever equivalent plan was compiled first.
func (p *Plan) Version() int { return p.core.Version() }

// Graph returns the graph this Plan was compiled for. The graph is
// immutable; mutate it through Plan.Mutate or Mutation.Apply.
func (p *Plan) Graph() *Graph { return p.g }

// Demand returns the flow demand this Plan answers for.
func (p *Plan) Demand() Demand { return p.dem }

// pfailOf collects the per-link failure probabilities of g, indexed by
// link ID.
func pfailOf(g *Graph) []float64 {
	p := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		p[i] = e.PFail
	}
	return p
}

// Eval returns the exact reliability under the given per-link failure
// probabilities (indexed by link ID; nil means the probabilities of the
// graph the Plan was compiled for). Forcing a link down is pfail[e] = 1,
// forcing it up is pfail[e] = 0 — valid for any link, bottleneck or side.
func (p *Plan) Eval(pfail []float64) (float64, error) {
	if pfail == nil {
		pfail = p.base
	}
	return p.core.Eval(pfail)
}

// EvalBatch evaluates many probability scenarios in parallel (nil entries
// mean the probabilities of the graph the Plan was requested for).
// Results are deterministic — bit-identical to per-scenario Eval —
// regardless of parallelism.
func (p *Plan) EvalBatch(scenarios [][]float64) ([]float64, error) {
	return p.EvalBatchWith(scenarios, EvalBatchOptions{})
}

// EvalBatchOptions tunes EvalBatchWith and EvalBatchInto.
type EvalBatchOptions struct {
	// Parallelism is the evaluation worker count; ≤ 0 means the
	// Config.Parallelism the Plan was compiled with (and GOMAXPROCS when
	// that is unset too). Results do not depend on it.
	Parallelism int
}

// EvalBatchWith is EvalBatch with explicit options.
func (p *Plan) EvalBatchWith(scenarios [][]float64, opt EvalBatchOptions) ([]float64, error) {
	out := make([]float64, len(scenarios))
	if err := p.EvalBatchInto(out, scenarios, opt); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalBatchInto evaluates scenarios[i] into dst[i] (len(dst) must equal
// len(scenarios)) without allocating result storage — the steady-state
// form for callers that re-evaluate batches in a loop. nil scenarios
// evaluate the Plan's base probabilities directly, with no per-call
// copying.
func (p *Plan) EvalBatchInto(dst []float64, scenarios [][]float64, opt EvalBatchOptions) error {
	par := opt.Parallelism
	if par <= 0 {
		par = p.parallelism
	}
	return p.core.EvalBatchInto(dst, scenarios, core.BatchOptions{Parallelism: par, Base: p.base})
}

// Report evaluates pfail (nil = compile-time probabilities) and packages
// the result like a Compute call with EngineCore, including the
// decomposition description. MaxFlowCalls and Configs reflect the compile
// phase this Plan came from; for a cache-hit Plan they are zero — the
// evaluation itself never runs a max-flow.
func (p *Plan) Report(pfail []float64) (Report, error) {
	r, err := p.Eval(pfail)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Reliability: r,
		Engine:      EngineCore,
		Cut:         p.Cut(),
		K:           p.core.K(),
		Alpha:       p.core.Alpha,
		Assignments: p.Assignments(),
		Lo:          r,
		Hi:          r,
	}
	if !p.cached {
		rep.MaxFlowCalls = p.core.Stats.MaxFlowCalls
		rep.Configs = p.core.Stats.SideConfigs[0] + p.core.Stats.SideConfigs[1]
	}
	return rep, nil
}

// Cached reports whether the compile phase was skipped entirely because
// the plan cache already held this structure (from an earlier CompilePlan
// or a concurrent one this call deduplicated onto).
func (p *Plan) Cached() bool { return p.cached }

// Cut returns a copy of the bottleneck link set E'.
func (p *Plan) Cut() []EdgeID {
	return append([]EdgeID(nil), p.core.Cut...)
}

// K returns the number of bottleneck links.
func (p *Plan) K() int { return p.core.K() }

// Alpha returns the balance max(|E_s|, |E_t|)/|E| of the split.
func (p *Plan) Alpha() float64 { return p.core.Alpha }

// Assignments returns a copy of the enumerated assignment family 𝒟.
func (p *Plan) Assignments() []Assignment {
	return append([]Assignment(nil), p.core.Assignments...)
}

// NumEdges returns the link count of the compiled graph; Eval vectors must
// have exactly this length.
func (p *Plan) NumEdges() int { return p.core.NumEdges() }

// BasePFail returns a copy of the failure probabilities of the graph the
// Plan was compiled for — the natural starting point for what-if vectors.
func (p *Plan) BasePFail() []float64 {
	return append([]float64(nil), p.base...)
}

// MaxFlowCalls reports the max-flow work of the compile phase that built
// this Plan's arrays; zero when the Plan came from the cache.
func (p *Plan) MaxFlowCalls() int64 {
	if p.cached {
		return 0
	}
	return p.core.Stats.MaxFlowCalls
}

// birnbaumFromPlan derives every link's conditionals from one compiled
// plan: forcing a link up is p(e) = 0, forcing it down is p(e) = 1, so
// the whole ranking is 2|E| probability evaluations — one EvalBatch
// through the block kernels — and zero max-flow calls.
func birnbaumFromPlan(g *Graph, plan *Plan) ([]LinkImportance, error) {
	base := plan.BasePFail()
	scenarios := make([][]float64, 2*g.NumEdges())
	for _, e := range g.Edges() {
		up := append([]float64(nil), base...)
		up[e.ID] = 0
		down := append([]float64(nil), base...)
		down[e.ID] = 1
		scenarios[2*e.ID] = up
		scenarios[2*e.ID+1] = down
	}
	rs, err := plan.EvalBatch(scenarios)
	if err != nil {
		return nil, err
	}
	out := make([]LinkImportance, g.NumEdges())
	for _, e := range g.Edges() {
		up, down := rs[2*e.ID], rs[2*e.ID+1]
		out[e.ID] = LinkImportance{
			Link:        e.ID,
			Birnbaum:    up - down,
			Improvement: up - ((1-e.PFail)*up + e.PFail*down),
			RUp:         up,
			RDown:       down,
		}
	}
	return out, nil
}

// upgradesFromPlan runs the greedy hardening loop against one compiled
// plan: hardening is p(e) → 0 in the probability vector, every round is
// one EvalBatch of at most |E| candidate scenarios, and the winning
// candidate's conditional IS the next round's baseline — no re-solve
// between rounds.
func upgradesFromPlan(plan *Plan, budget int) (UpgradePlan, error) {
	pf := plan.BasePFail()
	curR, err := plan.Eval(pf)
	if err != nil {
		return UpgradePlan{}, err
	}
	up := UpgradePlan{Before: curR}
	for round := 0; round < budget; round++ {
		var ids []EdgeID
		var scenarios [][]float64
		for id := range pf {
			if pf[id] == 0 {
				continue // already perfect (or hardened in an earlier round)
			}
			cand := append([]float64(nil), pf...)
			cand[id] = 0
			ids = append(ids, EdgeID(id))
			scenarios = append(scenarios, cand)
		}
		rs, err := plan.EvalBatch(scenarios)
		if err != nil {
			return UpgradePlan{}, err
		}
		bestLink := EdgeID(-1)
		bestR := curR
		for i, r := range rs {
			if r > bestR+1e-15 {
				bestR = r
				bestLink = ids[i]
			}
		}
		if bestLink < 0 {
			break // nothing improves further
		}
		pf[bestLink] = 0
		curR = bestR
		up.Links = append(up.Links, bestLink)
		up.After = append(up.After, curR)
	}
	return up, nil
}
