// Package anytime provides the cooperative cancellation and compute-budget
// machinery shared by every solver: a Budget (configuration, max-flow-call
// and wall-clock limits), a Ctl threaded through worker loops that turns
// context cancellation, deadlines and budget exhaustion into a single
// cheap "stop now" signal, and the PanicError type that worker goroutines
// use to convert a solver panic into a returned error instead of killing
// the process. It also holds the one worker pool (Run), configuration
// walk (Walk) and sample loop (Sample) that the enumeration and sampling
// engines run on, so each engine charges its budget the same way.
//
// Every exact engine in this repository is exponential in the link count,
// so a production caller must be able to bound the work it is willing to
// pay for. The contract is *anytime*: an interrupted engine does not
// discard the work it already did — it reports the mass it has proven
// admitting and the mass it has proven failing, which together certify an
// interval [lo, hi] containing the true reliability.
package anytime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flowrel/internal/stats"
)

// ErrInterrupted is wrapped by every error an engine returns when it was
// stopped by cancellation, deadline or budget exhaustion before producing
// a usable (even partial) answer. Test with errors.Is.
var ErrInterrupted = errors.New("anytime: computation interrupted")

// CheckEvery is the amortization grain of the cooperative cancellation
// checks: enumeration workers charge their Ctl once per CheckEvery
// configurations (or max-flow calls), so the hot loop pays one atomic
// update per batch rather than per configuration.
const CheckEvery = 4096

// Budget bounds the work of one computation. The zero value is unlimited.
type Budget struct {
	// MaxConfigs bounds the number of failure configurations (or
	// factoring branch nodes, or Monte Carlo samples) examined across all
	// workers; 0 = unlimited. Workers charge in batches, so a run may
	// overshoot by one batch per worker: an enumeration on Walk stops
	// within MaxConfigs + workers·CheckEvery configurations, a sampler
	// within MaxConfigs + workers·256 samples.
	MaxConfigs uint64
	// MaxMaxFlowCalls bounds the number of max-flow solver invocations;
	// 0 = unlimited. Walk and Sample also close a batch at CheckEvery
	// (or 256) calls, so a run stops within one batch of calls per
	// worker, plus the calls of the configuration that closed it.
	MaxMaxFlowCalls int64
	// SoftDeadline bounds the wall-clock time from the start of the
	// computation; 0 = none. "Soft" because workers notice it at the next
	// cooperative check, not instantaneously.
	SoftDeadline time.Duration
}

// IsZero reports whether the budget imposes no limit at all.
func (b Budget) IsZero() bool {
	return b.MaxConfigs == 0 && b.MaxMaxFlowCalls == 0 && b.SoftDeadline == 0
}

// Validate rejects nonsensical budgets.
func (b Budget) Validate() error {
	if b.MaxMaxFlowCalls < 0 {
		return fmt.Errorf("anytime: MaxMaxFlowCalls %d must be ≥ 0 (0 = unlimited)", b.MaxMaxFlowCalls)
	}
	if b.SoftDeadline < 0 {
		return fmt.Errorf("anytime: SoftDeadline %v must be ≥ 0 (0 = none)", b.SoftDeadline)
	}
	return nil
}

// Ctl is the cancellation controller threaded through the solver worker
// loops. A nil *Ctl is valid and means "never stop" with zero overhead, so
// engines thread it unconditionally. All methods are safe for concurrent
// use.
type Ctl struct {
	ctx      context.Context
	deadline time.Time // zero = none
	budget   Budget

	// tracer receives one ConfigEvent per amortized Charge batch — the
	// budget consumption curve. Set it with SetTracer before any worker
	// starts; it is inherited by Sub children so ladder rungs land on the
	// same curve. nil (the default) costs one branch per batch.
	tracer stats.Tracer
	// start anchors ConfigEvent.Elapsed; Sub children share the root's
	// start so the curve has a single time axis.
	start time.Time

	configs atomic.Uint64 // configurations examined so far
	calls   atomic.Int64  // max-flow calls so far
	stopped atomic.Bool

	mu     sync.Mutex
	reason string
}

// New builds a controller from a context and budget. ctx may be nil
// (treated as context.Background()). If both the budget and the context
// impose no limit the controller still honours explicit Stop calls.
func New(ctx context.Context, b Budget) *Ctl {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Ctl{ctx: ctx, budget: b, start: time.Now()}
	if b.SoftDeadline > 0 {
		c.deadline = c.start.Add(b.SoftDeadline)
	}
	// An already-expired context stops the run before any worker starts.
	c.Check()
	return c
}

// SetTracer installs the tracer that receives this controller's budget
// consumption events. Call it immediately after New, before any worker
// goroutine can Charge — the field is written without synchronization.
// A nil controller ignores the call; a nil tracer restores the fast path.
func (c *Ctl) SetTracer(tr stats.Tracer) {
	if c == nil {
		return
	}
	c.tracer = tr
}

// Tracer returns the installed tracer (nil for a nil controller). Engines
// use it to fire phase events alongside their budget charges.
func (c *Ctl) Tracer() stats.Tracer {
	if c == nil {
		return nil
	}
	return c.tracer
}

// Context returns the controller's context (context.Background() for a nil
// controller).
func (c *Ctl) Context() context.Context {
	if c == nil || c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Stopped reports whether the computation should wind down. It is the
// cheap check for hot loops: one atomic load.
func (c *Ctl) Stopped() bool {
	return c != nil && c.stopped.Load()
}

// Stop forces the computation to wind down with the given reason. The
// first reason wins.
func (c *Ctl) Stop(reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.reason == "" {
		c.reason = reason
	}
	c.mu.Unlock()
	c.stopped.Store(true)
}

// Reason returns why the computation stopped ("" while running or for a
// nil controller).
func (c *Ctl) Reason() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reason
}

// Err returns the interruption as an error wrapping ErrInterrupted, or nil
// if the controller never stopped.
func (c *Ctl) Err() error {
	if !c.Stopped() {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrInterrupted, c.Reason())
}

// Configs returns the number of configurations charged so far.
func (c *Ctl) Configs() uint64 {
	if c == nil {
		return 0
	}
	return c.configs.Load()
}

// MaxFlowCalls returns the number of max-flow calls charged so far.
func (c *Ctl) MaxFlowCalls() int64 {
	if c == nil {
		return 0
	}
	return c.calls.Load()
}

// Check re-evaluates the context and deadline without charging work.
// Returns true while the computation may continue.
func (c *Ctl) Check() bool {
	if c == nil {
		return true
	}
	if c.stopped.Load() {
		return false
	}
	if err := c.ctx.Err(); err != nil {
		c.Stop(fmt.Sprintf("context cancelled (%v)", err))
		return false
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.Stop(fmt.Sprintf("soft deadline %v exceeded", c.budget.SoftDeadline))
		return false
	}
	return true
}

// Charge records a batch of work (configs examined, max-flow calls made)
// and re-evaluates every stop condition. Workers call it once per
// CheckEvery configurations; it returns true while the computation may
// continue. A nil controller always returns true.
func (c *Ctl) Charge(configs uint64, calls int64) bool {
	if c == nil {
		return true
	}
	if c.tracer != nil && (configs > 0 || calls > 0) {
		c.tracer.OnConfig(stats.ConfigEvent{
			Configs:      configs,
			MaxFlowCalls: calls,
			Elapsed:      time.Since(c.start),
		})
	}
	return c.charge(configs, calls)
}

// charge records the work without firing the tracer — Absorb uses it so a
// child's batches, already traced once as they happened, are not reported
// a second time when folded into the parent.
func (c *Ctl) charge(configs uint64, calls int64) bool {
	total := c.configs.Add(configs)
	totalCalls := c.calls.Add(calls)
	if c.stopped.Load() {
		return false
	}
	if c.budget.MaxConfigs > 0 && total >= c.budget.MaxConfigs {
		c.Stop(fmt.Sprintf("configuration budget %d exhausted", c.budget.MaxConfigs))
		return false
	}
	if c.budget.MaxMaxFlowCalls > 0 && totalCalls >= c.budget.MaxMaxFlowCalls {
		c.Stop(fmt.Sprintf("max-flow call budget %d exhausted", c.budget.MaxMaxFlowCalls))
		return false
	}
	return c.Check()
}

// Sub derives a child controller that shares the parent's context and
// consumes at most the given fraction of the parent's *remaining* budget —
// the degradation ladder gives each rung its own slice so a stuck rung
// cannot starve the ones below it. Fractions are clamped to (0, 1]. A nil
// parent yields a nil child (still unlimited).
func (c *Ctl) Sub(fraction float64) *Ctl {
	if c == nil {
		return nil
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	var b Budget
	if c.budget.MaxConfigs > 0 {
		rem := uint64(0)
		if used := c.configs.Load(); used < c.budget.MaxConfigs {
			rem = c.budget.MaxConfigs - used
		}
		b.MaxConfigs = uint64(float64(rem)*fraction) + 1
	}
	if c.budget.MaxMaxFlowCalls > 0 {
		rem := int64(0)
		if used := c.calls.Load(); used < c.budget.MaxMaxFlowCalls {
			rem = c.budget.MaxMaxFlowCalls - used
		}
		b.MaxMaxFlowCalls = int64(float64(rem)*fraction) + 1
	}
	child := &Ctl{ctx: c.ctx, budget: b, tracer: c.tracer, start: c.start}
	if !c.deadline.IsZero() {
		rem := time.Until(c.deadline)
		if rem < 0 {
			rem = 0
		}
		child.budget.SoftDeadline = time.Duration(float64(rem) * fraction)
		child.deadline = time.Now().Add(child.budget.SoftDeadline)
	}
	if c.Stopped() {
		child.Stop(c.Reason())
	}
	child.Check()
	return child
}

// Absorb merges a finished child's work counters back into the parent so
// the parent's budget accounting stays truthful across ladder rungs.
func (c *Ctl) Absorb(child *Ctl) {
	if c == nil || child == nil {
		return
	}
	// The child's batches were traced as they happened (the child shares
	// the parent's tracer), so absorb without re-firing OnConfig.
	c.charge(child.configs.Load(), child.calls.Load())
}

// PanicError is a worker panic converted into an error: the process
// survives, the caller learns which configuration was being examined.
type PanicError struct {
	// Where names the worker loop that panicked.
	Where string
	// Config is the index of the failure configuration (or branch node,
	// or sample) being examined when the panic fired.
	Config uint64
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("anytime: panic in %s at configuration %d: %v", e.Where, e.Config, e.Value)
}

// RecoverInto is the deferred guard for worker goroutines: it converts a
// panic into a *PanicError stored at *dst (first panic wins if dst is
// shared per worker) and stops the controller so sibling workers wind
// down instead of burning the rest of the budget.
func RecoverInto(dst *error, ctl *Ctl, where string, config *uint64) {
	if r := recover(); r != nil {
		var idx uint64
		if config != nil {
			idx = *config
		}
		err := &PanicError{Where: where, Config: idx, Value: r}
		if *dst == nil {
			*dst = err
		}
		ctl.Stop(err.Error())
	}
}
