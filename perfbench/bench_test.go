package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"flowrel"
	"flowrel/internal/core"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		samples []int64
		p       float64
		want    int64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]int64{5, 1, 3}, 50, 3}, // rank ⌈1.5⌉ = 2
		{[]int64{5, 1, 3}, 99, 5}, // rank ⌈2.97⌉ = 3
		{[]int64{5, 1, 3}, 33, 1}, // rank ⌈0.99⌉ = 1
		{[]int64{5, 1, 3}, 34, 3}, // rank ⌈1.02⌉ = 2
		{[]int64{7}, 99, 7},
		{nil, 50, 0},
	}
	for _, c := range cases {
		s := append([]int64(nil), c.samples...)
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.samples, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestKeptWindowsDropStealBursts(t *testing.T) {
	wins := func(stolen ...int64) []window {
		var ws []window
		for _, s := range stolen {
			ws = append(ws, window{steal: s, total: 100})
		}
		return ws
	}
	for _, c := range []struct {
		stolen []int64
		keep   []bool
		limit  float64
	}{
		// A burst in two of six windows: the floor keeps the rest.
		{[]int64{0, 2, 30, 4, 50, 5}, []bool{true, true, false, true, false, true}, 0.05},
		// Steal throughout: the median keeps the calmer half.
		{[]int64{20, 40, 10, 30}, []bool{true, false, true, false}, 0.25},
		{[]int64{0}, []bool{true}, 0.05},
	} {
		keep, limit := keptWindows(wins(c.stolen...))
		if !slices.Equal(keep, c.keep) || math.Abs(limit-c.limit) > 1e-12 {
			t.Errorf("keptWindows(%v) = %v, %v; want %v, %v", c.stolen, keep, limit, c.keep, c.limit)
		}
	}
}

func TestSelfTimesNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1
		{ID: 3, Parent: 1, Start: 15, End: 20},  // grandchild
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{
		100 - 50 - 10, // children cover [10,60] and, clipped, [90,100]
		30 - 5,
		30,
		5,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderReconciles(t *testing.T) {
	r := newRecorder(1)
	// One op: the benchmark's root span, the public call inside it, a
	// ladder rung reserved but never reported, and a phase under the
	// rung, which must then count under the call instead.
	root := r.add("op", -1, 0, 100)
	call := r.add("flowrel.Compute", root, 5, 95)
	rung := r.add("flowrel.ladder.core", call, -1, -1)
	r.add("core.side_build", rung, 20, 60)
	r.finish()
	// A second op whose root is fully covered.
	root = r.add("op", -1, 200, 300)
	r.add("flowrel.Compute", root, 200, 300)
	r.finish()

	if got, want := r.unattributedRatio(), 10.0/200; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed ratio = %v, want %v", got, want)
	}
	c := r.totals("flowrel.Compute")
	if c.Count != 2 || c.Total != 190 || c.Self != 90-40+100 {
		t.Errorf("flowrel.Compute totals = %+v", c)
	}
	if s := r.totals("core.side_build"); s.Count != 1 || s.Self != 40 {
		t.Errorf("core.side_build totals = %+v", s)
	}
	if n := r.totals("flowrel.ladder.core").Count; n != 0 {
		t.Errorf("unreported rung counted %d times", n)
	}
	// Layer self times plus unattributed time add up to op time.
	var self int64
	for _, name := range []string{"op", "flowrel.Compute", "core.side_build"} {
		self += r.totals(name).Self
	}
	if op := r.totals("op").Total; self != op {
		t.Errorf("self times sum to %d, op time is %d", self, op)
	}
	if len(r.kept) != 4 {
		t.Errorf("kept %d spans of the first op, want 4", len(r.kept))
	}
}

func keysOf(t *testing.T, specs []overlaySpec) []string {
	var keys []string
	for _, s := range specs {
		in, ok := s.build()
		if !ok {
			t.Fatal("a stream entry does not build")
		}
		keys = append(keys, flowrel.StructuralHash(in.g, in.dem, flowrel.Config{}))
	}
	return keys
}

func TestColdStreamDeterministicAndDistinct(t *testing.T) {
	gen := func(seed int64) []string {
		return keysOf(t, coldStream(rand.New(rand.NewSource(seed)), 40, map[string]bool{}))
	}
	a, b, c := gen(1), gen(1), gen(2)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("the same seed gave different cold-compile streams")
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Error("a new seed gave the same cold-compile stream")
	}
	seen := map[string]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatal("cold-compile stream repeats a topology")
		}
		seen[k] = true
	}
}

func TestColdStreamFollowsBinMix(t *testing.T) {
	stream := coldStream(rand.New(rand.NewSource(3)), 100, map[string]bool{})
	count := make([]int, len(coldWeights))
	for _, s := range stream {
		in, _ := s.build()
		sh, ok := shapeOf(in)
		if !ok {
			t.Fatal("stream holds an instance the core rung would decline")
		}
		count[costBin(sh)-coldFirstBin]++
	}
	for b, w := range coldWeights {
		if count[b] != w {
			t.Errorf("bin %d holds %d topologies, want %d", b+coldFirstBin, count[b], w)
		}
	}
}

// TestColdWeightsFollowGenerator re-measures the generator's cost-bin
// distribution that coldWeights is derived from (seed 99, 20,000 draws)
// and reports it over every bin, with the shares the stream leaves out.
func TestColdWeightsFollowGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000 draws")
	}
	rng := rand.New(rand.NewSource(99))
	const draws = 20000
	hist := map[int]int{}
	declined, lo, hi := 0, 0, 0
	for i := 0; i < draws; i++ {
		in, ok := drawSpec(rng, coldParams(rng)).build()
		sh, shaped := shapeOf(in)
		if !ok || !shaped {
			declined++
			continue
		}
		b := costBin(sh)
		hist[b]++
		switch {
		case b < coldFirstBin:
			lo++
		case b >= coldFirstBin+len(coldWeights):
			hi++
		}
	}
	shaped := draws - declined
	kept := shaped - lo - hi
	t.Logf("declined by the core rung %.1f%% of draws; of the rest %.1f%% below 2^10, %.1f%% in 2^10–2^16, %.1f%% above",
		100*float64(declined)/draws, 100*float64(lo)/float64(shaped), 100*float64(kept)/float64(shaped), 100*float64(hi)/float64(shaped))
	for b := 0; b < 64; b++ {
		if hist[b] > 0 {
			t.Logf("bin %d [2^%.1f, 2^%.1f): %.2f%% of shaped draws", b, float64(b)/2, float64(b+1)/2, 100*float64(hist[b])/float64(shaped))
		}
	}
	for b, w := range coldWeights {
		share := 100 * float64(hist[coldFirstBin+b]) / float64(kept)
		if math.Abs(share-float64(w)) > 1 {
			t.Errorf("bin %d: weight %d, generator share of the kept range %.2f%%", coldFirstBin+b, w, share)
		}
	}
}

func TestWhatIfQueriesDeterministicWithFixedMix(t *testing.T) {
	bases := [][]float64{{0.1, 0.2, 0.3}, {0.05, 0.1, 0.15, 0.2}}
	gen := func(seed int64) []query { return whatIfQueries(rand.New(rand.NewSource(seed)), 200, bases) }
	a, b, c := gen(1), gen(1), gen(2)
	ja, _ := json.Marshal(flatten(a))
	jb, _ := json.Marshal(flatten(b))
	jc, _ := json.Marshal(flatten(c))
	if !bytes.Equal(ja, jb) {
		t.Error("the same seed gave different queries")
	}
	if bytes.Equal(ja, jc) {
		t.Error("a new seed gave the same queries")
	}
	for blk := 0; blk < 2; blk++ {
		count := make([]int, len(whatIfMix))
		for _, q := range a[blk*100 : (blk+1)*100] {
			for c, m := range whatIfMix {
				if q.plan == m.plan && len(q.scenarios) >= m.lo && len(q.scenarios) <= m.hi {
					count[c]++
				}
			}
			for _, v := range q.scenarios {
				if len(v) != len(bases[q.plan]) {
					t.Fatal("scenario length does not match its plan")
				}
			}
		}
		for c, m := range whatIfMix {
			if count[c] != m.count {
				t.Errorf("block %d class %d holds %d queries, want %d", blk, c, count[c], m.count)
			}
		}
	}
}

func flatten(qs []query) [][][]float64 {
	out := make([][][]float64, len(qs))
	for i, q := range qs {
		out[i] = append([][]float64{{float64(q.plan)}}, q.scenarios...)
	}
	return out
}

func TestChurnBlockPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		var flaps, moves, keeps, leaves int
		live := false
		for _, ev := range churnBlock(rng) {
			switch ev {
			case flap:
				flaps++
			case joinMove, joinKeep:
				if live {
					t.Fatal("a join while another joined link is live")
				}
				live = true
				if ev == joinMove {
					moves++
				} else {
					keeps++
				}
			case leave:
				if !live {
					t.Fatal("a leave with no joined link")
				}
				live = false
				leaves++
			}
		}
		if live || flaps != 90 || moves != 2 || keeps != 3 || leaves != 5 {
			t.Fatalf("block: %d flaps, %d moving and %d keeping joins, %d leaves, live %v", flaps, moves, keeps, leaves, live)
		}
	}
}

func TestChurnChainDeterministic(t *testing.T) {
	gen := func(seed int64) []churnStep {
		rng := rand.New(rand.NewSource(seed))
		base := findShape(rng, churnBase.p, churnBase.want, map[string]bool{})
		steps, err := churnChain(rng, base, 30)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	a, b, c := gen(1), gen(1), gen(2)
	if len(a) != 30 {
		t.Fatalf("chain has %d steps, want 30", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the same seed gave a different step %d", i)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("a new seed gave the same chain")
	}
}

func TestServiceScheduleDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := findShape(rng, serviceShape.p, serviceShape.want, map[string]bool{})
	topo, err := json.Marshal(&flowrel.File{Graph: q.g, Demand: &q.dem})
	if err != nil {
		t.Fatal(err)
	}
	muts := []flowrel.Mutation{{Kind: flowrel.MutateCapacity, Link: 0, Cap: 2}}
	gen := func(seed int64) []serviceReq {
		reqs, err := serviceSchedule(rand.New(rand.NewSource(seed)), 200, pfailOf(q.g), [][]byte{topo}, muts)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b, c := gen(1), gen(1), gen(2)
	differs := false
	type class struct {
		kind reqKind
		n    int
	}
	count := map[class]int{}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("the same seed gave a different request %d", i)
		}
		differs = differs || !bytes.Equal(a[i].body, c[i].body)
		count[class{a[i].kind, len(a[i].vectors)}]++
	}
	if !differs {
		t.Error("a new seed gave the same requests")
	}
	for _, m := range serviceMix {
		if got := count[class{m.kind, m.n}]; got != 2*m.count {
			t.Errorf("%d requests of kind %s with %d scenarios, want %d", got, kindName[m.kind], m.n, 2*m.count)
		}
	}
}

func TestCheckersRejectCorruptedReference(t *testing.T) {
	if !coldAnswerOK(0.5, "core", 0.5+5e-13) {
		t.Error("cold-compile check rejected an answer within 1e-12")
	}
	if coldAnswerOK(0.5, "core", 0.5+1e-9) {
		t.Error("cold-compile check accepted an answer 1e-9 off")
	}
	if coldAnswerOK(0.5, "factoring", 0.5) {
		t.Error("cold-compile check accepted an answer from the factoring rung")
	}

	rng := rand.New(rand.NewSource(1))
	q := findShape(rng, serviceShape.p, serviceShape.want, map[string]bool{})
	ref, err := core.Compile(q.g, q.dem, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := pfailOf(q.g)
	want, err := ref.EvalScalar(v)
	if err != nil {
		t.Fatal(err)
	}
	req := serviceReq{kind: kindEval, vectors: [][]float64{v}}
	var s server
	for _, c := range []struct {
		a     answer
		wrong int64
	}{
		{answer{status: 200, rel: []float64{want}}, 0},
		{answer{status: 200, rel: []float64{math.Nextafter(want, 2)}}, 1}, // one ulp off
		{answer{status: 200}, 1},                                          // answer missing
		{answer{status: 429}, 0},                                          // refused: a failure, not a wrong answer
	} {
		got, err := s.check(c.a, req, ref, q, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.wrong {
			t.Errorf("check(%+v) = %d wrong, want %d", c.a, got, c.wrong)
		}
	}

	// churn-stream: two chains of four steps, the second entering the
	// timed phase at step 2, three timed ops: chain 0 walked steps 0 and
	// 1, chain 1 steps 0 and 1 in warm-up and step 2 timed.
	chains := make([][]churnStep, 2)
	good := make([][]float64, 2)
	for c := range chains {
		for j := 0; j < 4; j++ {
			chains[c] = append(chains[c], churnStep{want: 0.1 * float64(j+1)})
			good[c] = append(good[c], 0.1*float64(j+1))
		}
	}
	off := []int{0, 2}
	if n := churnWrong(chains, good, off, 3); n != 0 {
		t.Errorf("churn check: %d wrong answers in a correct run", n)
	}
	good[0][1] = math.Nextafter(good[0][1], 2) // walked, one ulp off
	good[1][1] = 0.9                           // walked in warm-up
	good[1][0] = math.NaN()                    // failed: an error, not a wrong answer
	good[0][2], good[1][3] = 0.9, 0.9          // never walked
	if n := churnWrong(chains, good, off, 3); n != 2 {
		t.Errorf("churn check: %d wrong answers, want 2", n)
	}
}

func TestFailureCounting(t *testing.T) {
	rep := &report{attempted: 10, errors: 2, wrong: 1, lat: []int64{1000}, setups: []float64{1}, elapsed: 1e9, units: 10}
	res := assemble(rep, perLayer, true)
	if res.Correct || res.Failed != 3 || res.Attempted != 10 {
		t.Errorf("result = %+v, want 3 failed of 10 and not correct", res)
	}
	if got := res.Metrics["error_rate"].Value; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("error_rate = %v, want 0.3", got)
	}

	workloads["test-wrong"] = func(env) (*report, error) { return rep, nil }
	defer delete(workloads, "test-wrong")
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "test-wrong", "-seconds", "1"}, &out, &errOut); code != 1 {
		t.Errorf("a run with a wrong answer exited %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if last.Correct || last.Failed != 3 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("printed result = %+v", last)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// BENCHMARK.json this directory is named in.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s", i, bj.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program has %s %s", i, bj.PerLayer[i], m.name, m.unit)
		}
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}
