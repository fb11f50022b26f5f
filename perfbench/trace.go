package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"flowrel"
)

// span is one timed interval of one op: a call the benchmark makes into a
// public function, or a phase or timer the program itself reports for
// that call. Spans of one op share Op; Parent links a span to the span
// that caused it (-1 marks the op's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) valid() bool { return s.Start >= 0 && s.End >= s.Start }

// layerTotals is what the traced run learns about one span name: how
// many such spans closed and the wall and self time they covered.
type layerTotals struct {
	Count int64
	Total int64 // ns
	Self  int64 // ns
}

// recorder keeps the spans of the op in flight, folds each finished op
// into per-name totals, and keeps the raw spans of the first keepOps ops
// in memory for the trace file written when the run ends. Phase events
// can arrive on solver goroutines, so every method locks.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	op      int64
	cur     []span
	keepOps int64
	kept    []span
	layers  map[string]*layerTotals
	rootNs  int64 // Σ root durations
	unattr  int64 // Σ root self time: op time no layer span covers
}

func newRecorder(keepOps int64) *recorder {
	return &recorder{epoch: time.Now(), keepOps: keepOps, layers: make(map[string]*layerTotals)}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span at the current time and returns its id.
func (r *recorder) begin(name string, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(name, parent, t, -1)
}

// end closes span id at the current time and returns that time.
func (r *recorder) end(id int32) int64 {
	t := r.now()
	r.mu.Lock()
	r.cur[id].End = t
	r.mu.Unlock()
	return t
}

// add records a span whose bounds are already known (a phase event, a
// registry timer); start or end -1 reserves a span filled in by set.
func (r *recorder) add(name string, parent int32, start, end int64) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(name, parent, start, end)
}

func (r *recorder) addLocked(name string, parent int32, start, end int64) int32 {
	id := int32(len(r.cur))
	r.cur = append(r.cur, span{Op: r.op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// set fills in the bounds of a reserved span.
func (r *recorder) set(id int32, start, end int64) {
	r.mu.Lock()
	r.cur[id].Start, r.cur[id].End = start, end
	r.mu.Unlock()
}

// finish closes the op in flight: spans never filled in are dropped
// (their children move to the dropped span's parent), self times are
// computed and folded into the per-name totals, and the next op starts.
func (r *recorder) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := reparentInvalid(r.cur)
	self := selfTimes(spans)
	for i, s := range spans {
		if !s.valid() {
			continue
		}
		lt := r.layers[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			r.layers[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += self[i]
		if s.Parent < 0 {
			r.rootNs += s.End - s.Start
			r.unattr += self[i]
		}
	}
	if r.op < r.keepOps {
		r.kept = append(r.kept, spans...)
	}
	r.op++
	r.cur = r.cur[:0]
}

// totals returns the per-name totals for name (zero when no such span
// closed).
func (r *recorder) totals(name string) layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lt := r.layers[name]; lt != nil {
		return *lt
	}
	return layerTotals{}
}

// unattributedRatio is the share of traced op time that no layer span
// covers: root self time over root time.
func (r *recorder) unattributedRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ratio(float64(r.unattr), float64(r.rootNs))
}

// writeFile writes the kept spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.kept {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reparentInvalid returns spans with every span whose parent was never
// filled in re-attached to the nearest valid ancestor.
func reparentInvalid(spans []span) []span {
	for i := range spans {
		p := spans[i].Parent
		for p >= 0 && !spans[p].valid() {
			p = spans[p].Parent
		}
		spans[i].Parent = p
	}
	return spans
}

// selfTimes returns, for every span of one op, its duration minus the
// part of it covered by the union of its children's intervals, each
// child clipped to the parent. Invalid spans get 0.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		if !s.valid() {
			continue
		}
		var kids []iv
		for _, c := range spans {
			if c.Parent != s.ID || !c.valid() {
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				kids = append(kids, iv{lo, hi})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			if k.lo > reach {
				reach = k.lo
			}
			if k.hi > reach {
				covered += k.hi - reach
				reach = k.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// phaseTracer turns one Compute call's tracer events into child spans:
// phase events become spans ending when they arrive, under the ladder
// rung span reserved before the call, which the rung event fills in.
type phaseTracer struct {
	rec  *recorder
	rung int32
}

var phaseSpan = map[string]string{
	"cut-search": "mincut.cut_search",
	"side/0":     "core.side_build",
	"side/1":     "core.side_build",
}

func (t *phaseTracer) OnPhase(e flowrel.PhaseEvent) {
	end := t.rec.now()
	name := phaseSpan[e.Phase]
	if name == "" {
		name = e.Engine + "." + e.Phase
	}
	t.rec.add(name, t.rung, end-e.Duration.Nanoseconds(), end)
}

func (t *phaseTracer) OnConfig(flowrel.ConfigEvent) {}

func (t *phaseTracer) OnRung(e flowrel.RungEvent) {
	if e.Rung != "core" {
		return
	}
	end := t.rec.now()
	t.rec.set(t.rung, end-e.Duration.Nanoseconds(), end)
}
