package flowrel

import (
	"context"
	"math/big"
	"strings"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/reliability"
	"flowrel/internal/stats"
)

// Budget bounds the work of an anytime computation: a configuration
// count, a max-flow-call count and a soft wall-clock deadline (the zero
// value is unlimited). Budgets are honoured cooperatively at an amortized
// grain, so a run overshoots by at most one check batch per worker: an
// enumeration engine stops within MaxConfigs + workers·4096
// configurations, a sampling engine within MaxConfigs + workers·256
// samples.
type Budget = anytime.Budget

// ErrInterrupted is wrapped by every error returned because a computation
// was stopped — by context cancellation, a soft deadline or budget
// exhaustion — before it could produce even a partial answer. Engines
// that can certify partial mass (factoring, the enumeration engines,
// most-probable-states) do not error on interruption; they return their
// result with Partial set instead.
var ErrInterrupted = anytime.ErrInterrupted

// ladderSamples caps the Monte Carlo rung of the degradation ladder; the
// remaining budget usually stops it much earlier.
const ladderSamples = 1 << 20

// computeLadder is EngineAuto under a controller: each rung receives a
// slice of the *remaining* budget (so a stuck rung cannot starve the ones
// below), and its work is absorbed back into the parent before the next
// rung starts.
//
//	core (¼)  → chain (⅓)  → factoring (½)  → states bound (½)  → IS estimate (rest)
//
// The structural rungs answer exactly or not at all. Factoring and the
// most-probable-states rung are anytime: interrupted, they certify an
// interval, and the ladder keeps the narrower of the two. The final rung
// spends whatever budget is left on an importance-sampled point estimate
// inside that interval.
// rungNote labels a rung's decline reason, avoiding "core: core: …"
// stutter when the underlying error already carries the rung's prefix.
func rungNote(rung, msg string) string {
	if strings.HasPrefix(msg, rung+": ") {
		return msg
	}
	return rung + ": " + msg
}

// traceRung fires a ladder-transition event when a tracer is installed.
func traceRung(ctl *anytime.Ctl, rung, outcome, reason string, start time.Time) {
	if tr := ctl.Tracer(); tr != nil {
		tr.OnRung(stats.RungEvent{
			Rung:     rung,
			Outcome:  outcome,
			Reason:   reason,
			Duration: time.Since(start),
		})
	}
}

func computeLadder(g *Graph, dem Demand, cfg Config, ctl *anytime.Ctl) (Report, error) {
	var why []string

	// Rung 1: the paper's bottleneck decomposition.
	if !ctl.Stopped() {
		rungStart := time.Now()
		sub := ctl.Sub(0.25)
		rep, err := computeCore(g, dem, cfg, sub)
		ctl.Absorb(sub)
		if err == nil {
			traceRung(ctl, "core", "answered", "", rungStart)
			rep.Rung = "core"
			return rep, nil
		}
		traceRung(ctl, "core", "declined", err.Error(), rungStart)
		why = append(why, rungNote("core", err.Error()))
	}

	// Rung 2: a sequence of cuts can decompose graphs a single balanced
	// cut cannot.
	if !ctl.Stopped() {
		rungStart := time.Now()
		sub := ctl.Sub(1.0 / 3)
		rep, err := computeChain(g, dem, cfg, sub)
		ctl.Absorb(sub)
		if err == nil {
			traceRung(ctl, "chain", "answered", "", rungStart)
			rep.Rung = "chain"
			return rep, nil
		}
		traceRung(ctl, "chain", "declined", err.Error(), rungStart)
		why = append(why, rungNote("chain", err.Error()))
	}

	// Rung 3: factoring — exact when it finishes, a certified interval
	// when it does not.
	best := Report{Engine: EngineAuto, Partial: true, Lo: 0, Hi: 1, Reliability: 0.5, Rung: "factoring"}
	rungStart := time.Now()
	sub := ctl.Sub(0.5)
	res, err := reliability.Factoring(g, dem, reliability.Options{Parallelism: cfg.Parallelism, Ctl: sub})
	ctl.Absorb(sub)
	if err != nil {
		// A panic or validation failure, not an interruption — surface it.
		traceRung(ctl, "factoring", "error", err.Error(), rungStart)
		return Report{}, err
	}
	if !res.Partial {
		traceRung(ctl, "factoring", "answered", "", rungStart)
		return Report{
			Reliability:  res.Reliability,
			Engine:       EngineFactoring,
			Rung:         "factoring",
			Lo:           res.Reliability,
			Hi:           res.Reliability,
			MaxFlowCalls: ctl.MaxFlowCalls(),
			Configs:      ctl.Configs(),
			Reason:       strings.Join(why, "; "),
		}, nil
	}
	best.Lo, best.Hi, best.Reliability = res.Lo, res.Hi, res.Reliability
	traceRung(ctl, "factoring", "partial", res.Reason, rungStart)
	why = append(why, "factoring: "+res.Reason)

	// Rung 4: most-probable-states — certified no matter where it stops;
	// keep whichever interval is narrower.
	rungStart = time.Now()
	sub = ctl.Sub(0.5)
	b, err := reliability.MostProbableStatesOpt(g, dem, g.NumEdges(), reliability.Options{Ctl: sub})
	ctl.Absorb(sub)
	if err != nil {
		traceRung(ctl, "most-probable-states", "error", err.Error(), rungStart)
		why = append(why, "most-probable-states: "+err.Error())
	} else if b.Upper-b.Lower < best.Hi-best.Lo {
		traceRung(ctl, "most-probable-states", "improved", b.Reason, rungStart)
		best.Lo, best.Hi = b.Lower, b.Upper
		best.Reliability = (b.Lower + b.Upper) / 2
		best.Rung = "most-probable-states"
		best.Partial = b.Partial
		if b.Partial {
			why = append(why, "most-probable-states: "+b.Reason)
		}
	} else {
		traceRung(ctl, "most-probable-states", "kept-previous", b.Reason, rungStart)
		if b.Partial {
			why = append(why, "most-probable-states: "+b.Reason)
		}
	}

	// Rung 5: spend what remains on an importance-sampled point estimate
	// inside the certified interval.
	if best.Partial && best.Hi > best.Lo {
		rungStart = time.Now()
		sub = ctl.Sub(1)
		est, err := reliability.UnreliabilityIS(g, dem, ladderSamples, 1, 0.3,
			reliability.Options{Parallelism: cfg.Parallelism, Ctl: sub})
		ctl.Absorb(sub)
		if err != nil {
			traceRung(ctl, "importance-sampling", "error", err.Error(), rungStart)
			why = append(why, "importance-sampling: "+err.Error())
		} else if est.Samples > 0 {
			traceRung(ctl, "importance-sampling", "estimated", "", rungStart)
			r := 1 - est.Reliability
			if r < best.Lo {
				r = best.Lo
			}
			if r > best.Hi {
				r = best.Hi
			}
			best.Reliability = r
			best.Rung = "importance-sampling"
		}
	}

	best.MaxFlowCalls = ctl.MaxFlowCalls()
	best.Configs = ctl.Configs()
	best.Reason = strings.Join(why, "; ")
	return best, nil
}

// ExactCtx is the rational-arithmetic oracle under a context. The oracle
// is all-or-nothing — there is no meaningful partial *big.Rat — so a
// cancelled run returns an error wrapping ErrInterrupted.
func ExactCtx(ctx context.Context, g *Graph, dem Demand) (*big.Rat, error) {
	return reliability.NaiveExactCtx(ctx, g, dem)
}

// MonteCarloCtx is MonteCarlo under a context and budget: an interrupted
// run returns the estimate over the samples completed so far with
// Estimate.Partial set (and Samples possibly 0, making it vacuous).
func MonteCarloCtx(ctx context.Context, g *Graph, dem Demand, samples int, seed int64, b Budget) (Estimate, error) {
	return reliability.MonteCarlo(g, dem, samples, seed, reliability.Options{Ctl: anytime.New(ctx, b)})
}

// UnreliabilityISCtx is UnreliabilityIS under a context and budget; same
// partial-estimate contract as MonteCarloCtx.
func UnreliabilityISCtx(ctx context.Context, g *Graph, dem Demand, samples int, seed int64, bias float64, b Budget) (Estimate, error) {
	return reliability.UnreliabilityIS(g, dem, samples, seed, bias, reliability.Options{Ctl: anytime.New(ctx, b)})
}

// MostProbableStatesCtx is MostProbableStates under a context and budget.
// The bounding construction certifies its interval no matter where the
// enumeration stops, so an interrupted run returns a wider — but still
// guaranteed — Bound with Partial set. Pass maxFailures = |E| and a
// budget to get the pure anytime form.
func MostProbableStatesCtx(ctx context.Context, g *Graph, dem Demand, maxFailures int, b Budget) (Bound, error) {
	return reliability.MostProbableStatesOpt(g, dem, maxFailures, reliability.Options{Ctl: anytime.New(ctx, b)})
}
