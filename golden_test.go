package flowrel

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const goldenFile = "testdata/reliability.golden"

// goldenCase is one pinned question: a named graph and demand.
type goldenCase struct {
	name string
	g    *Graph
	dem  Demand
}

// goldenCases returns testdata/*.g and 200 clustered overlays drawn with
// the cold-compile stream's generator parameters (6–10 nodes per side,
// 2–4 extra links, k, d and capacities 1–3, failure probability
// 0.02–0.2), seed 29. Draws the core engine declines past 16 links a
// side, and those whose cut cannot carry the demand, are skipped.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	files, err := filepath.Glob("testdata/*.g")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata graphs: %v", err)
	}
	var cases []goldenCase
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ParseTextString(string(raw))
		if err != nil || f.Demand == nil {
			t.Fatalf("%s: %v", path, err)
		}
		cases = append(cases, goldenCase{filepath.Base(path), f.Graph, *f.Demand})
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; len(cases) < len(files)+200; i++ {
		side, extra := 6+rng.Intn(5), 2+rng.Intn(3)
		k, d, maxCap := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
		pf, seed := 0.02+0.18*rng.Float64(), rng.Int63()
		o, err := ClusteredOverlay(side, side+extra, k, d, maxCap, pf, seed)
		if err != nil {
			continue
		}
		dem := o.Demand(o.Peers[len(o.Peers)-1])
		ResetPlanCache()
		if rep, err := Compute(o.G, dem, Config{Engine: EngineCore, MaxSideEdges: 16}); err != nil || len(rep.Assignments) == 0 {
			continue
		}
		cases = append(cases, goldenCase{fmt.Sprintf("clustered-%d", i), o.G, dem})
	}
	return cases
}

// TestReliabilityGolden pins every answer bit for bit: the
// math.Float64bits of Compute's reliability on each golden case, under
// the auto and the core engine, must equal the recorded value. A change that only skips work
// no answer reads moves none of them; one that reorders arithmetic
// must say so and rewrite the file (UPDATE_GOLDEN=1).
func TestReliabilityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 200 overlays")
	}
	var got []string
	for _, c := range goldenCases(t) {
		for _, eng := range []Engine{EngineAuto, EngineCore} {
			ResetPlanCache()
			rep, err := Compute(c.g, c.dem, Config{Engine: eng})
			if err != nil {
				// The core engine declines a graph without a small cut
				// (duplexring.g); the decline is pinned too.
				got = append(got, fmt.Sprintf("%s %v declined", c.name, eng))
				continue
			}
			got = append(got, fmt.Sprintf("%s %v %016x", c.name, eng, math.Float64bits(rep.Reliability)))
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var want []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden answers, computed %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			w, g := strings.Fields(want[i]), strings.Fields(got[i])
			wb, _ := strconv.ParseUint(w[len(w)-1], 16, 64)
			gb, _ := strconv.ParseUint(g[len(g)-1], 16, 64)
			t.Errorf("golden %q, got %q (%.17g against %.17g)", want[i], got[i], math.Float64frombits(wb), math.Float64frombits(gb))
		}
	}
}
