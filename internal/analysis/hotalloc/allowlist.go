package hotalloc

import "regexp"

// An allowance is one committed escape-analysis waiver: a pattern over
// the compiler's -m message plus the written reason the escape does not
// cost an allocation per operation. Keys are "<pkgtail>.<func>".
type allowance struct {
	re *regexp.Regexp
}

func allow(pats ...string) []allowance {
	out := make([]allowance, len(pats))
	for i, p := range pats {
		out[i] = allowance{re: regexp.MustCompile(p)}
	}
	return out
}

// allowlist is the committed record of every escape the hot path is
// permitted. Each entry states why the escape is free in steady state;
// an entry that stops matching is reported as stale by the module pass.
var allowlist = map[string][]allowance{
	// Plan.Eval: the operands are fmt.Errorf boxing on the
	// reject-invalid-input error path, never taken in steady state.
	"core.Eval": allow(
		`^(len\(pfail\)|p\.numEdges|v|i) escapes to heap$`,
	),

	// EvalBatchInto: the slice headers and options leak into the worker
	// closure, the len() operands are error-path boxing, and the one
	// func literal is the multi-worker dispatch closure — a single
	// allocation per batch (workers > 1 only), amortized over every
	// scenario in it. The workers == 1 fast path allocates nothing.
	"core.EvalBatchInto": allow(
		`^leaking param: (p|dst|scenarios|opt)$`,
		`^(len\(dst\)|len\(scenarios\)) escapes to heap$`,
		`^func literal escapes to heap$`,
	),

	// drain: the receiver and the padded base vector are stored into the
	// pooled per-worker scratch's row table for the duration of the call;
	// the rows are cleared before the scratch is Put back.
	"core.drain": allow(
		`^leaking param: (p|base)$`,
	),

	// runPool: the worker closure, the shared counter, the WaitGroup and
	// the panic latch all live on the heap for the pool's lifetime — a
	// constant handful of allocations per batch, never per item. Callers
	// that need strict zero allocation take the workers == 1 path, which
	// never reaches runPool.
	"core.runPool": allow(
		`^leaking param: worker$`,
		`^moved to heap: (next|wg|panicMu|panicVal)$`,
		`^func literal escapes to heap$`,
	),
}
