// Package poly computes the flow-reliability polynomial: when every link
// fails with the same probability p, the reliability is
//
//	R(p) = Σ_{i=0}^{m} N_i · (1-p)^i · p^{m-i}
//
// where N_i counts the failure configurations with exactly i operational
// links that admit the demand. One 2^m enumeration yields the whole curve
// R(·) — every sweep over link quality afterwards is a polynomial
// evaluation. The counts also expose structural coefficients familiar from
// classical reliability theory: the smallest i with N_i > 0 is the size of
// the smallest admitting link set (the "shortest delivery subgraph"), and
// m minus the largest i with N_i < C(m, i) is the size of the smallest
// disconnecting set relative to the demand.
package poly

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"flowrel/internal/anytime"
	"flowrel/internal/conf"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
	"flowrel/internal/reliability"
)

// Polynomial is a flow-reliability polynomial in Bernstein (count) form.
type Polynomial struct {
	M int // number of links
	// Admitting[i] = number of admitting configurations with exactly i
	// operational links; Admitting[i] ≤ C(M, i) always fits uint64 for
	// M ≤ 63.
	Admitting []uint64
}

// Compute enumerates all 2^m failure configurations once and tallies the
// admitting ones by operational-link count. Parallel and deterministic.
// The graph's per-link probabilities are ignored (the polynomial treats p
// as the variable).
//
// opt.Ctl makes the enumeration cancellable. The counts N_i certify
// nothing until the enumeration is complete — a missing configuration
// could shift any coefficient — so an interrupted run returns an error
// wrapping anytime.ErrInterrupted rather than a partial polynomial.
func Compute(g *graph.Graph, dem graph.Demand, opt reliability.Options) (Polynomial, error) {
	if g == nil {
		return Polynomial{}, fmt.Errorf("poly: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Polynomial{}, err
	}
	m := g.NumEdges()
	if m > conf.MaxEnumEdges {
		return Polynomial{}, &conf.ErrTooManyEdges{N: m, Where: "graph"}
	}
	proto, handles := maxflow.FromGraph(g)
	s, t := int32(dem.S), int32(dem.T)

	chunks := conf.SplitEnum(m)
	partial := make([][]uint64, len(chunks))
	err := anytime.Run(opt.Ctl, opt.Parallelism, len(chunks), "poly worker", func(ci int, cur *uint64) {
		nw := proto.Clone()
		counts := make([]uint64, m+1)
		anytime.Walk(opt.Ctl, opt.TestHook, nw, handles, chunks[ci][0], chunks[ci][1], cur, func(mask uint64) {
			if nw.MaxFlow(s, t, dem.D) >= dem.D {
				counts[bits.OnesCount64(mask)]++
			}
		})
		partial[ci] = counts
	})
	if err != nil {
		return Polynomial{}, err
	}
	if opt.Ctl.Stopped() {
		return Polynomial{}, fmt.Errorf("poly: enumeration interrupted: %w", opt.Ctl.Err())
	}

	P := Polynomial{M: m, Admitting: make([]uint64, m+1)}
	for _, counts := range partial {
		for i, c := range counts {
			P.Admitting[i] += c
		}
	}
	return P, nil
}

// Eval returns R(p) for a uniform link failure probability p ∈ [0, 1].
// Evaluation in the Bernstein basis is numerically stable.
func (P Polynomial) Eval(p float64) float64 {
	q := 1 - p
	// Horner-like evaluation: Σ N_i q^i p^{m-i}. Compute powers directly;
	// m ≤ 63 keeps this cheap and stable.
	r := 0.0
	for i, n := range P.Admitting {
		if n == 0 {
			continue
		}
		r += float64(n) * math.Pow(q, float64(i)) * math.Pow(p, float64(P.M-i))
	}
	return r
}

// MinAdmittingLinks returns the smallest number of operational links that
// can admit the demand (-1 if no configuration admits it).
func (P Polynomial) MinAdmittingLinks() int {
	for i, n := range P.Admitting {
		if n > 0 {
			return i
		}
	}
	return -1
}

// MinDisconnectingLinks returns the size of the smallest link set whose
// failure defeats the demand (-1 if even the full graph does not admit it):
// m minus the largest i with Admitting[i] < C(m, i).
func (P Polynomial) MinDisconnectingLinks() int {
	if P.Admitting[P.M] == 0 {
		return -1
	}
	for i := P.M; i >= 0; i-- {
		if P.Admitting[i] < binom(P.M, i) {
			return P.M - i
		}
	}
	// Unreachable for a valid demand: the zero-link configuration never
	// admits, so Admitting[0] < C(m, 0) always triggers above.
	return -1
}

// SolveFor returns the largest uniform failure probability p ∈ [0, 1] at
// which R(p) ≥ target (bisection; R is non-increasing in p). It answers
// "how good must the links be for the service level I promised": ok is
// false when even perfect links miss the target.
func (P Polynomial) SolveFor(target float64) (p float64, ok bool) {
	if P.Eval(0) < target {
		return 0, false
	}
	if P.Eval(1) >= target {
		return 1, true
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if P.Eval(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// Coefficients expands the polynomial into the power basis:
// R(p) = Σ_j c_j p^j with exact integer coefficients
// (q^i = (1-p)^i expanded binomially).
func (P Polynomial) Coefficients() []*big.Int {
	c := make([]*big.Int, P.M+1)
	for j := range c {
		c[j] = new(big.Int)
	}
	term := new(big.Int)
	for i, n := range P.Admitting {
		if n == 0 {
			continue
		}
		// N_i · (1-p)^i · p^{m-i} = N_i Σ_k C(i,k) (-1)^k p^{k+m-i}.
		for k := 0; k <= i; k++ {
			term.Binomial(int64(i), int64(k))
			term.Mul(term, new(big.Int).SetUint64(n))
			if k&1 == 1 {
				term.Neg(term)
			}
			c[k+P.M-i].Add(c[k+P.M-i], term)
		}
	}
	return c
}

// EvalCoefficients evaluates the power-basis form at p (for tests; Eval is
// the stable route).
func EvalCoefficients(c []*big.Int, p float64) float64 {
	r := 0.0
	pw := 1.0
	for _, cj := range c {
		f, _ := new(big.Float).SetInt(cj).Float64()
		r += f * pw
		pw *= p
	}
	return r
}

func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	return new(big.Int).Binomial(int64(n), int64(k)).Uint64()
}
