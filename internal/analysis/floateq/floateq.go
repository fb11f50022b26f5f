// Package floateq flags exact == / != comparisons between floating-point
// expressions that carry reliability semantics. Every engine in this
// module reports probabilities accumulated through long floating-point
// sums in different orders (parallel reductions, zeta transforms,
// subset scans), so two mathematically equal reliabilities are only equal
// to within rounding — comparing them with == encodes a test that passes
// by accident. Compare with an explicit tolerance (math.Abs(a-b) < tol,
// or testutil.AlmostEqual) instead, or waive the finding with
// //flowrelvet:exactfloat <reason> when bit-identity is the property
// under test (e.g. determinism across worker counts of one fixed
// summation order).
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"flowrel/internal/analysis"
)

// Analyzer is the floateq pass.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= between reliability-carrying float expressions; require an explicit tolerance or a //flowrelvet:exactfloat waiver",
	Run:  run,
}

// nameHint matches identifier/field/type names that carry reliability
// semantics: reliabilities, probabilities, certified Lo/Hi bounds,
// standard errors, masses.
var nameHint = regexp.MustCompile(`(?i)(reliab|probab|pfail|plive|stderr|mass)`)

// exactNames are short names matched whole (case-insensitively): the
// certified interval endpoints and the conventional probability names.
var exactNames = map[string]bool{"lo": true, "hi": true, "prob": true}

// reportTypes are named types whose fields are reliability outputs; a
// selector off one of them is a hint even when the field name is bland.
var reportTypes = map[string]bool{
	"Report": true, "Result": true, "Estimate": true, "Bound": true,
	"Importance": true, "Interval": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		waivers := analysis.WaiverSet(pass.Fset, file, "exactfloat")
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) || !isFloat(pass, be.Y) {
				return true
			}
			// Comparison against the exact sentinels 0 and 1 is fine:
			// conditioning sets probabilities to exactly 0 or 1 and IEEE
			// comparison against them is not subject to rounding.
			if isExactSentinel(pass, be.X) || isExactSentinel(pass, be.Y) {
				return true
			}
			if !hinted(pass, be.X) && !hinted(pass, be.Y) {
				return true
			}
			line := pass.Fset.Position(be.Pos()).Line
			if w, ok := waivers[line]; ok {
				if w.Reason == "" {
					pass.Reportf(w.Pos, "flowrelvet:exactfloat waiver needs a reason")
				}
				return true
			}
			pass.Reportf(be.Pos(), "exact %s between reliability floats; use a tolerance (math.Abs(a-b) < tol) or waive with //flowrelvet:exactfloat <reason>", be.Op)
			return true
		})
	}
	return nil, nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactSentinel reports whether e is a compile-time constant equal to
// exactly 0 or 1.
func isExactSentinel(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0 || f == 1
}

// hinted reports whether the expression's vocabulary — identifiers, field
// selections, or the named types they belong to — involves reliability.
func hinted(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if hintName(n.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if hintName(n.Sel.Name) {
				found = true
			}
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				t := tv.Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok && reportTypes[named.Obj().Name()] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func hintName(name string) bool {
	if nameHint.MatchString(name) {
		return true
	}
	return exactNames[strings.ToLower(name)]
}
