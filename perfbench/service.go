package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"flowrel"
	"flowrel/internal/core"
)

// service-mix: the relcalcd binary with default flags, booted by the
// benchmark and driven closed-loop over one keep-alive connection by one
// client goroutine. Every block of 100 requests holds 73 evals, 20
// evalbatch requests of 16 scenarios, 2 of 256, 3 mutations of the
// queried plan and 2 resubmissions of known topologies; the writes are
// answered from the plan cache once warm. The median sits inside the
// evals; the 99th percentile in the middle of the 256-scenario batches,
// whose few milliseconds of decoding, evaluation and encoding dwarf a
// scheduler stall, so the tail moves with the server's work rather than
// with how often the host preempts it.
//
// The generator is closed-loop because a sleep-paced open-loop one ran
// 2–32 ms late at p99 on a 2-core host, 10–150× the server's median, and
// would have measured itself. It uses one connection because a second
// queued each request behind the other's (eval p90 410 µs against 200).
const (
	serviceSetupReps = 11
	serviceTopos     = 4    // topologies submitted in set-up; 0 is queried
	serviceMutations = 16   // distinct capacity flaps of topology 0
	servicePool      = 2000 // distinct requests; the timed phase cycles them
)

var serviceShape = struct {
	p    clusteredParams
	want shape
}{clusteredParams{side: 8, extra: 3, k: 2, d: 2, maxCap: 2}, shape{es: 11, et: 11, k: 2, n: 2}}

type reqKind int

const (
	kindEval reqKind = iota
	kindBatch
	kindMutate
	kindSubmit
)

var kindName = [...]string{"eval", "evalbatch", "mutate", "compile"}

// serviceMix is one block of 100 requests: count requests of kind, with
// n scenarios each for evaluations.
var serviceMix = []struct {
	kind     reqKind
	n, count int
}{
	{kindEval, 1, 73},
	{kindBatch, 16, 20},
	{kindBatch, 256, 2},
	{kindMutate, 0, 3},
	{kindSubmit, 0, 2},
}

// serviceReq is one pre-encoded request; target indexes the topology
// (submit) or mutation (mutate), vectors the evaluated scenarios.
type serviceReq struct {
	kind    reqKind
	target  int
	vectors [][]float64
	body    []byte
}

// serviceSchedule draws the request pool, following serviceMix in every
// block of 100 in seeded order.
func serviceSchedule(rng *rand.Rand, n int, base []float64, topoJSON [][]byte, muts []flowrel.Mutation) ([]serviceReq, error) {
	var block []int
	for c, m := range serviceMix {
		for j := 0; j < m.count; j++ {
			block = append(block, c)
		}
	}
	randomVector := func() []float64 {
		v := make([]float64, len(base))
		for e := range v {
			v[e] = 0.01 + 0.29*rng.Float64()
		}
		return v
	}
	reqs := make([]serviceReq, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			r := serviceReq{kind: serviceMix[c].kind}
			var err error
			switch r.kind {
			case kindEval:
				r.vectors = [][]float64{randomVector()}
				r.body, err = json.Marshal(map[string]any{"pfail": r.vectors[0]})
			case kindBatch:
				for j := 0; j < serviceMix[c].n; j++ {
					r.vectors = append(r.vectors, randomVector())
				}
				r.body, err = json.Marshal(map[string]any{"scenarios": r.vectors})
			case kindMutate:
				r.target = rng.Intn(len(muts))
				m := muts[r.target]
				r.body, err = json.Marshal(map[string]any{"kind": "capacity", "link": m.Link, "cap": m.Cap})
			case kindSubmit:
				r.target = rng.Intn(len(topoJSON))
				r.body, err = json.Marshal(map[string]json.RawMessage{"topology": topoJSON[r.target]})
			}
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	return reqs[:n], nil
}

// answer is what one response said.
type answer struct {
	status int
	rel    []float64
	handle string
}

func runService(e env) (*report, error) {
	if e.relcalcd == "" || e.outDir == "" {
		return nil, fmt.Errorf("service-mix needs -relcalcd and -out")
	}
	// The client mostly waits on the network; one processor for it
	// leaves the second to relcalcd.
	runtime.GOMAXPROCS(1)
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	topos := make([]instance, serviceTopos)
	topoJSON := make([][]byte, serviceTopos)
	for i := range topos {
		topos[i] = findShape(rng, serviceShape.p, serviceShape.want, seen)
		b, err := json.Marshal(&flowrel.File{Graph: topos[i].g, Demand: &topos[i].dem})
		if err != nil {
			return nil, err
		}
		topoJSON[i] = b
	}
	q := topos[0]
	ref, err := core.Compile(q.g, q.dem, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	muts := serviceMutationSet(rng, q, ref.Cut)
	reqs, err := serviceSchedule(rng, servicePool, pfailOf(q.g), topoJSON, muts)
	if err != nil {
		return nil, err
	}

	// Set-up: boot relcalcd to /readyz and submit the topologies, on a
	// fresh process each repetition; the last one serves the timed phase.
	rep := &report{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var handles []string
	for r := 0; r < serviceSetupReps; r++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		srv, err = bootServer(e.relcalcd, filepath.Join(e.outDir, fmt.Sprintf("relcalcd-%d-%d.addr", os.Getpid(), r)))
		if err != nil {
			return nil, err
		}
		handles = handles[:0]
		for _, tj := range topoJSON {
			var sr struct{ Handle string }
			body, _ := json.Marshal(map[string]json.RawMessage{"topology": tj})
			if st, err := srv.post("/v1/topologies", body, &sr); err != nil || st != http.StatusOK {
				return nil, fmt.Errorf("set-up submit: status %d: %v", st, err)
			}
			handles = append(handles, sr.Handle)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	paths := make([]string, len(reqs))
	for i, r := range reqs {
		switch r.kind {
		case kindEval:
			paths[i] = "/v1/plans/" + handles[0] + "/eval"
		case kindBatch:
			paths[i] = "/v1/plans/" + handles[0] + "/evalbatch"
		case kindMutate:
			paths[i] = "/v1/plans/" + handles[0] + "/mutate"
		case kindSubmit:
			paths[i] = "/v1/topologies"
		}
	}

	if err := resetPeakRSS(srv.pid()); err != nil {
		return nil, err
	}
	var before, after serverStats
	if e.trace {
		if before, err = srv.stats(); err != nil {
			return nil, err
		}
	}

	// Timed phase: the client cycles the request pool; a traced run
	// alternates whole passes over it.
	var rec *recorder
	if e.trace {
		rec = newRecorder(2000)
	}
	answers := make([]answer, len(reqs)) // the last answer to each request
	var errs int64
	ph := timedLoop(e.seconds, 0, e.tracePeriod(len(reqs)), nil, func(i int, traced bool) int64 {
		i %= len(reqs)
		a, err := srv.do(paths[i], reqs[i].body, reqs[i].kind, traced, rec)
		if err != nil || a.status != http.StatusOK {
			errs++
		}
		answers[i] = a
		return 1
	})
	kb, err := peakRSSKB(srv.pid())
	if err != nil {
		return nil, err
	}
	rep.peakKB, rep.elapsed, rep.errors = kb, ph.elapsed, errs
	rep.attempted, rep.lat, rep.gate = ph.ops, ph.lat, ph.gateNote()
	rep.units = float64(ph.units)

	if e.trace {
		if after, err = srv.stats(); err != nil {
			return nil, err
		}
		live, err := srv.liveHeapMB()
		if err != nil {
			return nil, err
		}
		rep.layers = serviceLayers(before, after, rep.attempted)
		clientMean := ratio(float64(ph.untracedNs+ph.tracedNs), float64(ph.ops))
		rep.layers["relcalcd.overhead_us"] = (clientMean - 1e3*after.computeUSPerRequest(before)) / 1e3
		rep.layers["runtime.heap_live_mb"] = live
		rep.layers["trace.unattributed_ratio"] = rec.unattributedRatio()
		rep.layers["trace.overhead_ratio"] = ph.overheadRatio()
		if path := e.traceFile("service-mix"); path != "" {
			if err := rec.writeFile(path); err != nil {
				return nil, err
			}
		}
	}

	// Checks, outside the timed phase: every 2xx answer equals the
	// library's for the same instance and vector.
	mutHandle := map[int]string{}
	for i, a := range answers {
		wrong, err := srv.check(a, reqs[i], ref, q, handles, muts, mutHandle)
		if err != nil {
			return nil, err
		}
		rep.wrong += wrong
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv = nil
	return rep, nil
}

// check counts the wrong values in one answer (none for an answer the
// client never got or that was not a 2xx). Evaluations must be
// bit-identical to the scalar evaluator on the reference plan, a
// resubmission must return the topology's set-up handle, and a mutation
// always the same handle, whose plan evaluates like a cold compile of
// the mutated instance.
func (s *server) check(a answer, r serviceReq, ref *core.Plan, q instance, handles []string, muts []flowrel.Mutation, mutHandle map[int]string) (int64, error) {
	if a.status != http.StatusOK {
		return 0, nil
	}
	var wrong int64
	switch r.kind {
	case kindEval, kindBatch:
		if len(a.rel) != len(r.vectors) {
			return 1, nil
		}
		for j, v := range r.vectors {
			want, err := ref.EvalScalar(v)
			if err != nil {
				return 0, err
			}
			if math.Float64bits(a.rel[j]) != math.Float64bits(want) {
				wrong++
			}
		}
	case kindSubmit:
		if a.handle != handles[r.target] {
			wrong++
		}
	case kindMutate:
		h, ok := mutHandle[r.target]
		if !ok {
			mutHandle[r.target], h = a.handle, a.handle
			var got struct{ Reliability float64 }
			if st, err := s.post("/v1/plans/"+a.handle+"/eval", []byte(`{"pfail":null}`), &got); err != nil || st != http.StatusOK {
				return 1, nil
			}
			want, err := mutatedAnswer(q, muts[r.target])
			if err != nil {
				return 0, err
			}
			if math.Float64bits(got.Reliability) != math.Float64bits(want) {
				wrong++
			}
		}
		if a.handle != h {
			wrong++
		}
	}
	return wrong, nil
}

// serviceMutationSet draws distinct capacity flaps of q's links off its
// bottleneck cut.
func serviceMutationSet(rng *rand.Rand, q instance, cut []flowrel.EdgeID) []flowrel.Mutation {
	used := map[flowrel.EdgeID]bool{}
	for _, c := range cut {
		used[c] = true
	}
	var muts []flowrel.Mutation
	for len(muts) < serviceMutations && len(used) < q.g.NumEdges() {
		id := flowrel.EdgeID(rng.Intn(q.g.NumEdges()))
		if used[id] {
			continue
		}
		used[id] = true
		c := 1
		if q.g.Edge(id).Cap == 1 {
			c = 2
		}
		muts = append(muts, flowrel.Mutation{Kind: flowrel.MutateCapacity, Link: id, Cap: c})
	}
	return muts
}

// mutatedAnswer is the library's cold answer for q after mutation m.
func mutatedAnswer(q instance, m flowrel.Mutation) (float64, error) {
	g2, _, err := m.Apply(q.g)
	if err != nil {
		return 0, err
	}
	p, err := core.Compile(g2, q.dem, core.Options{})
	if err != nil {
		return 0, err
	}
	return p.Eval(nil)
}

// server is one relcalcd process the benchmark started.
type server struct {
	cmd      *exec.Cmd
	base     string
	client   *http.Client
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

// bootServer starts relcalcd with its default flags on an ephemeral
// port and returns once /readyz answers 200.
func bootServer(bin, addrFile string) (*server, error) {
	os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting relcalcd: %w", err)
	}
	s := &server{
		cmd:    cmd,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for ; time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("relcalcd exited during boot: %v", err)
		default:
		}
		if s.base == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || len(b) == 0 {
				continue
			}
			s.base = "http://" + strings.TrimSpace(string(b))
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err != nil {
			s.base = "" // not serving yet, or the file was read mid-write
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			os.Remove(addrFile)
			return s, nil
		}
	}
	s.stop()
	return nil, fmt.Errorf("relcalcd not ready within 20s")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains relcalcd with SIGTERM, kills it if it has not exited
// within five seconds, and waits for it. Later calls return the first
// call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
			s.stopErr = fmt.Errorf("relcalcd did not drain within 5s")
		}
	})
	return s.stopErr
}

// post sends body to path and decodes a 2xx JSON response into out.
func (s *server) post(path string, body []byte, out any) (int, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// do sends one timed request; traced requests record a client span tree
// (op → http.roundtrip, client.decode) on rec.
func (s *server) do(path string, body []byte, kind reqKind, traced bool, rec *recorder) (answer, error) {
	var op, rt int32
	if traced {
		op = rec.begin("op", -1)
		rt = rec.begin("http.roundtrip", op)
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a := answer{}
	if resp != nil {
		a.status = resp.StatusCode
	}
	if traced {
		rec.end(rt)
	}
	if err == nil && a.status == http.StatusOK {
		var dec int32
		if traced {
			dec = rec.begin("client.decode", op)
		}
		switch kind {
		case kindEval:
			var r struct{ Reliability float64 }
			err = json.Unmarshal(data, &r)
			a.rel = []float64{r.Reliability}
		case kindBatch:
			var r struct{ Reliabilities []float64 }
			err = json.Unmarshal(data, &r)
			a.rel = r.Reliabilities
		default:
			var r struct{ Handle string }
			err = json.Unmarshal(data, &r)
			a.handle = r.Handle
		}
		if traced {
			rec.end(dec)
		}
	}
	if traced {
		rec.end(op)
		rec.finish()
	}
	return a, err
}

// serverStats is what /statsz and /debug/vars report at one instant.
type serverStats struct {
	Requests  int64 `json:"requests"`
	Admission struct {
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	PlanCache flowrel.PlanCacheCounters `json:"plan_cache"`
	Latency   map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"latency_us"`
	mem struct {
		TotalAlloc uint64
		NumGC      uint32
		HeapAlloc  uint64
	}
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	if err := s.getJSON("/statsz", &st); err != nil {
		return st, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint32
			HeapAlloc  uint64
		} `json:"memstats"`
	}
	if err := s.getJSON("/debug/vars", &vars); err != nil {
		return st, err
	}
	st.mem = vars.Memstats
	return st, nil
}

// liveHeapMB makes relcalcd collect twice (the heap profile endpoint
// collects before profiling when asked) and reads the heap in use.
func (s *server) liveHeapMB() (float64, error) {
	for i := 0; i < 2; i++ {
		if err := s.getJSON("/debug/pprof/heap?gc=1", nil); err != nil {
			return 0, err
		}
	}
	st, err := s.stats()
	return float64(st.mem.HeapAlloc) / (1 << 20), err
}

func (s *server) getJSON(path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// computeUSPerRequest is the server's mean compute time per request
// between prev and s: every endpoint's latency sum over all requests.
func (s serverStats) computeUSPerRequest(prev serverStats) float64 {
	var sum int64
	for name, l := range s.Latency {
		sum += l.Sum - prev.Latency[name].Sum
	}
	return ratio(float64(sum), float64(s.Requests-prev.Requests))
}

// serviceLayers derives relcalcd's per-layer metrics from two readings.
func serviceLayers(prev, cur serverStats, ops int64) map[string]float64 {
	m := map[string]float64{}
	for _, k := range kindName {
		l, p := cur.Latency[k], prev.Latency[k]
		m["relcalcd.compute_us."+k] = ratio(float64(l.Sum-p.Sum), float64(l.Count-p.Count))
	}
	reqs := float64(cur.Requests - prev.Requests)
	m["relcalcd.rejected_ratio"] = ratio(float64(cur.Admission.Rejected-prev.Admission.Rejected), reqs)
	hits := float64(cur.PlanCache.Hits - prev.PlanCache.Hits)
	misses := float64(cur.PlanCache.Misses - prev.PlanCache.Misses)
	m["flowrel.plancache_hit_ratio"] = ratio(hits, hits+misses)
	m["flowrel.plancache_evictions"] = ratio(float64(cur.PlanCache.Evictions-prev.PlanCache.Evictions), float64(ops))
	m["runtime.alloc_kb_per_op"] = ratio(float64(cur.mem.TotalAlloc-prev.mem.TotalAlloc)/1024, float64(ops))
	m["runtime.gc_per_kop"] = ratio(float64(cur.mem.NumGC-prev.mem.NumGC)*1000, float64(ops))
	return m
}
