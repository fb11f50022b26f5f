package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"flowrel"
)

const figure2Text = `
node s
node t
edge s a 1 0.10
edge s b 1 0.10
edge a x 1 0.10
edge b x 1 0.10
edge x y 1 0.05
edge y c 1 0.10
edge y d 1 0.10
edge c t 1 0.10
edge d t 1 0.10
demand s t 1
`

func runCLI(t *testing.T, args []string, stdin string) (string, error) {
	t.Helper()
	// Each real CLI invocation is a fresh process with an empty plan
	// cache; mirror that so budgeted runs are not answered from plans
	// compiled by earlier tests in this binary.
	flowrel.ResetPlanCache()
	var out strings.Builder
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

func TestEnginesProduceSameValue(t *testing.T) {
	want := "reliability = 0.882648049500"
	for _, eng := range []string{"auto", "core", "naive", "factoring", "chain"} {
		out, err := runCLI(t, []string{"-engine", eng}, figure2Text)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !strings.Contains(out, want) {
			t.Fatalf("%s output missing %q:\n%s", eng, want, out)
		}
	}
}

func TestExactEngine(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "exact"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exact rational") || !strings.Contains(out, "0.882648049500") {
		t.Fatalf("output: %s", out)
	}
}

func TestMonteCarloEngine(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "montecarlo", "-samples", "20000"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "95% CI") {
		t.Fatalf("output: %s", out)
	}
}

func TestChainEngine(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "chain", "-stats"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "engine chain") || !strings.Contains(out, "max-flow calls") {
		t.Fatalf("output: %s", out)
	}
}

// -engine chain runs under the same budget flags as the other exact
// engines: a configuration budget too small for its segment walks stops
// it with the interruption error instead of an answer.
func TestChainEngineHonoursBudget(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "chain", "-max-configs", "2"}, figure2Text)
	if !errors.Is(err, flowrel.ErrInterrupted) {
		t.Fatalf("err = %v, want one wrapping ErrInterrupted; output: %s", err, out)
	}
	if strings.Contains(out, "reliability") {
		t.Fatalf("interrupted chain printed an answer: %s", out)
	}
}

func TestAuxiliaryOutputs(t *testing.T) {
	out, err := runCLI(t, []string{"-bounds", "-states", "2", "-dist", "-stats", "-reduce", "-importance"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bounds: [", "states(≤2 failures)", "P(rate = 1)", "reduced:", "link importance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCLI(t, []string{"-json"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Reliability float64 `json:"reliability"`
		Engine      string  `json:"engine"`
		Bottleneck  *struct {
			K int `json:"k"`
		} `json:"bottleneck"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if parsed.Engine != "core" || parsed.Bottleneck == nil || parsed.Bottleneck.K != 1 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if diff := parsed.Reliability - 0.8826480495; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reliability = %v", parsed.Reliability)
	}
}

func TestPartialInterval(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "factoring", "-max-configs", "4", "-p", "1"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reliability ∈ [") || !strings.Contains(out, "partial:") {
		t.Fatalf("budgeted run output missing partial interval:\n%s", out)
	}
}

func TestPartialMonteCarlo(t *testing.T) {
	out, err := runCLI(t, []string{"-engine", "montecarlo", "-samples", "1000000", "-max-configs", "5000"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "partial: stopped after") {
		t.Fatalf("budgeted Monte Carlo output missing partial note:\n%s", out)
	}
}

func TestPartialJSON(t *testing.T) {
	out, err := runCLI(t, []string{"-json", "-max-configs", "2"}, figure2Text)
	if err != nil {
		t.Fatalf("partial JSON run must exit cleanly: %v", err)
	}
	var parsed struct {
		Partial bool    `json:"partial"`
		Lo      float64 `json:"lo"`
		Hi      float64 `json:"hi"`
		Rung    string  `json:"rung"`
		Reason  string  `json:"reason"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if !parsed.Partial || parsed.Rung == "" || parsed.Reason == "" {
		t.Fatalf("parsed = %+v", parsed)
	}
	if parsed.Lo > parsed.Hi || parsed.Lo < 0 || parsed.Hi > 1 {
		t.Fatalf("invalid interval [%g, %g]", parsed.Lo, parsed.Hi)
	}
	if want := 0.8826480495; want < parsed.Lo-1e-9 || want > parsed.Hi+1e-9 {
		t.Fatalf("interval [%g, %g] misses true reliability %g", parsed.Lo, parsed.Hi, want)
	}
}

func TestDOTOutput(t *testing.T) {
	out, err := runCLI(t, []string{"-dot"}, figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "color=red") {
		t.Fatalf("DOT output: %s", out)
	}
}

func TestDemandOverride(t *testing.T) {
	noDemand := strings.Replace(figure2Text, "demand s t 1", "", 1)
	if _, err := runCLI(t, nil, noDemand); err == nil {
		t.Fatal("missing demand accepted")
	}
	out, err := runCLI(t, []string{"-s", "s", "-t", "t", "-d", "1"}, noDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.882648049500") {
		t.Fatalf("output: %s", out)
	}
	if _, err := runCLI(t, []string{"-s", "nope"}, figure2Text); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := runCLI(t, []string{"-t", "nope"}, figure2Text); err == nil {
		t.Fatal("unknown sink accepted")
	}
}

func TestReadFromFile(t *testing.T) {
	out, err := runCLI(t, []string{"../../testdata/figure4.g"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.922455256860") {
		t.Fatalf("output: %s", out)
	}
	if _, err := runCLI(t, []string{"/nonexistent.g"}, ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := runCLI(t, []string{"-engine", "frobnicate"}, figure2Text); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := runCLI(t, nil, "garbage input"); err == nil {
		t.Fatal("garbage graph accepted")
	}
	if _, err := runCLI(t, []string{"-badflag"}, figure2Text); err == nil {
		t.Fatal("bad flag accepted")
	}
}
