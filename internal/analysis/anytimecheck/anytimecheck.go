// Package anytimecheck enforces the anytime-budget contract on the
// exponential enumeration loops. Every engine in this module walks a
// configuration space of size 2^m; the certified-budget contract (PR 1)
// says such loops consult their *anytime.Ctl — Check or Charge — so a
// caller-imposed budget or cancellation actually stops the walk and the
// partial interval stays certified. One loop that forgets the check runs
// to completion no matter what budget the caller paid for.
//
// A loop counts as enumeration when any of these hold:
//   - its condition bounds the induction variable by a shifted mask
//     (x < 1<<k and variants) — the 2^m walk idiom;
//   - its body calls into the subset-lattice package (Submasks,
//     SupersetZeta, …) — an inclusion–exclusion walk;
//   - the comment directly above it says it enumerates.
//
// Such a loop must contain a call to Check/Charge/Stopped on an
// anytime.Ctl (or a helper whose name ends in "Charge"), or carry an
// explicit waiver: //flowrelvet:unbounded <reason>. The reason is
// mandatory — an undocumented waiver is itself a finding.
package anytimecheck

import (
	"go/ast"
	"go/token"
	"strings"

	"flowrel/internal/analysis"
)

// Analyzer is the anytimecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "anytimecheck",
	Doc:  "enumeration loops must charge the anytime budget (Ctl.Check/Charge) or carry //flowrelvet:unbounded <reason>",
	Run:  run,
}

// policed names the packages (by import-path tail) whose loops are held
// to the contract: every package that hosts an exponential engine, and
// anytime itself, whose shared walk and sample loop run most of them.
var policed = map[string]bool{
	"core": true, "reliability": true, "chain": true, "poly": true,
	"sim": true, "srlg": true, "subset": true, "dist": true,
	"multicast": true, "anytime": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !policedPath(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			// The anytime contract binds engines; tests drive the
			// transforms at fixed sizes and need no budget.
			continue
		}
		waivers := analysis.WaiverSet(pass.Fset, file, "unbounded")
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				if !isEnumLoop(pass, file, loop.Cond, loop.Body, loop.Pos()) {
					return true
				}
				body = loop.Body
			case *ast.RangeStmt:
				if !isEnumLoop(pass, file, nil, loop.Body, loop.Pos()) {
					return true
				}
				body = loop.Body
			default:
				return true
			}
			if chargesBudget(pass, body) {
				return true
			}
			line := pass.Fset.Position(n.Pos()).Line
			if w, ok := waivers[line]; ok {
				if w.Reason == "" {
					pass.Reportf(w.Pos, "flowrelvet:unbounded waiver needs a reason")
				}
				return true
			}
			pass.Reportf(n.Pos(), "enumeration loop never charges the anytime budget; call Ctl.Check/Charge inside it or waive with //flowrelvet:unbounded <reason>")
			return true
		})
	}
	return nil, nil
}

func policedPath(path string) bool {
	for name := range policed {
		if analysis.PathTail(path, name) {
			return true
		}
	}
	return false
}

// isEnumLoop classifies a loop as a configuration-space enumeration.
func isEnumLoop(pass *analysis.Pass, file *ast.File, cond ast.Expr, body *ast.BlockStmt, pos token.Pos) bool {
	if cond != nil {
		if be, ok := cond.(*ast.BinaryExpr); ok && (be.Op == token.LSS || be.Op == token.LEQ) {
			if containsShift(be.Y) {
				return true
			}
		}
	}
	if callsPackage(pass, body, "subset") {
		return true
	}
	line := pass.Fset.Position(pos).Line
	return analysis.EnumComment(analysis.CommentBefore(pass.Fset, file, line))
}

// containsShift reports whether the expression tree contains a << — the
// "2^m bound" idiom (1<<k, uint64(1)<<uint(k), …).
func containsShift(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.SHL {
			found = true
		}
		return !found
	})
	return found
}

// callsPackage reports whether the body calls a function declared in a
// package whose import path ends in tail.
func callsPackage(pass *analysis.Pass, body *ast.BlockStmt, tail string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		var id *ast.Ident
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			id = fn
		case *ast.SelectorExpr:
			id = fn.Sel
		default:
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil &&
			analysis.PathTail(obj.Pkg().Path(), tail) {
			found = true
		}
		return !found
	})
	return found
}

// chargesBudget reports whether the loop body (at any depth) consults an
// anytime controller: a Check/Charge/Stopped method on a Ctl from an
// "anytime" package, or a helper whose name ends in "Charge" (the
// flush-and-charge idiom of the batched workers).
func chargesBudget(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name := fn.Sel.Name
			if name == "Check" || name == "Charge" || name == "Stopped" {
				if tv, ok := pass.TypesInfo.Types[fn.X]; ok && tv.Type != nil &&
					analysis.IsNamed(tv.Type, "anytime", "Ctl") {
					found = true
				}
			}
			if hasSuffixCharge(name) {
				found = true
			}
		case *ast.Ident:
			if hasSuffixCharge(fn.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

func hasSuffixCharge(name string) bool {
	return len(name) >= len("Charge") && name[len(name)-len("Charge"):] == "Charge"
}
