package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"flowrel"
)

// phase is what one timed loop measured.
type phase struct {
	ops         int64
	elapsed     time.Duration // length of the kept windows
	units       int64         // units of work done in the kept windows
	lat         []int64       // untraced op latencies in the kept windows, ns
	untracedOps int64
	untracedNs  int64
	tracedNs    int64
	tracedOps   int64
	steal       float64 // share of the machine's CPU time the host stole meanwhile
	windows     int
	kept        int     // windows kept
	stealLimit  float64 // steal share at or below which a window was kept
}

// The timed phase is cut into stealWindow windows, and the end-to-end
// figures use only those in which the hypervisor stole at most
// stealFloor of the machine's CPU time, or at most the run's median share
// if that is higher, so always at least half of them. The host lends this
// machine's cores to other tenants in bursts of a few seconds; unfiltered,
// a run during one read up to 45% lower throughput and 1.9 times the p99
// of a run outside one, with identical code and inputs. The program's own
// speed shows the same in every window, so a regression still shows.
const (
	stealWindow = 500 * time.Millisecond
	stealFloor  = 0.05
)

// window is one stealWindow of a timed phase.
type window struct {
	lat          int   // index in phase.lat of its first untraced sample
	units        int64 // units of work done by the ops that ended in it
	ns           int64 // its length, prep pauses excluded
	steal, total int64 // host CPU ticks stolen and in all over it
}

// keptWindows returns which windows count and the steal share at or
// below which they do.
func keptWindows(wins []window) ([]bool, float64) {
	shares := make([]float64, len(wins))
	for i, w := range wins {
		shares[i] = ratio(float64(w.steal), float64(w.total))
	}
	limit := max(stealFloor, median(shares))
	keep := make([]bool, len(wins))
	for i, sh := range shares {
		keep[i] = sh <= limit
	}
	return keep, limit
}

// timedLoop calls op(i, traced) for i = 0, 1, … from one goroutine until
// d of timed phase has passed or limit ops ran (limit ≤ 0: no limit); op
// returns the units of work it did. prep(i), when given, readies op i's
// input with the clock stopped: its time counts towards neither d, the
// op's latency nor the elapsed time. With period > 0, runs of period ops
// are alternately untraced and traced; a workload that cycles its inputs
// passes the cycle length, so both halves see the same inputs and their
// mean latencies give the tracing overhead.
func timedLoop(d time.Duration, limit, period int, prep func(i int), op func(i int, traced bool) int64) phase {
	ph := phase{lat: sampleBuf(100_000 * int(d/time.Second+1))}
	var wins []window
	var w window
	wSteal, wTotal := cpuTimes()
	steal0, total0 := wSteal, wTotal
	var paused, wPaused time.Duration
	start := time.Now()
	wStart := start
	closeWindow := func(now time.Time) {
		s, t := cpuTimes()
		w.ns = int64(now.Sub(wStart) - (paused - wPaused))
		w.steal, w.total = s-wSteal, t-wTotal
		wins = append(wins, w)
		w = window{lat: len(ph.lat)}
		wSteal, wTotal, wStart, wPaused = s, t, now, paused
	}
	for i := 0; limit <= 0 || i < limit; i++ {
		if prep != nil {
			p0 := time.Now()
			prep(i)
			paused += time.Since(p0)
		}
		t0 := time.Now()
		if t0.Sub(start)-paused >= d {
			break
		}
		if t0.Sub(wStart)-(paused-wPaused) >= stealWindow {
			closeWindow(t0)
			t0 = time.Now() // reading /proc/stat is in no op's latency
		}
		traced := period > 0 && (i/period)%2 == 1
		u := op(i, traced)
		ns := time.Since(t0).Nanoseconds()
		ph.ops++
		w.units += u
		if traced {
			ph.tracedNs += ns
			ph.tracedOps++
		} else {
			ph.untracedNs += ns
			ph.untracedOps++
			ph.lat = append(ph.lat, ns)
		}
	}
	closeWindow(time.Now())
	ph.steal = ratio(float64(wSteal-steal0), float64(wTotal-total0))
	keep, limitShare := keptWindows(wins)
	ph.windows, ph.stealLimit = len(wins), limitShare
	kept := ph.lat[:0]
	for k, win := range wins {
		if !keep[k] {
			continue
		}
		end := len(ph.lat)
		if k+1 < len(wins) {
			end = wins[k+1].lat
		}
		kept = append(kept, ph.lat[win.lat:end]...)
		ph.kept++
		ph.units += win.units
		ph.elapsed += time.Duration(win.ns)
	}
	ph.lat = kept
	return ph
}

// gateNote describes the steal filter's effect for the run's log.
func (ph phase) gateNote() string {
	return fmt.Sprintf("host CPU steal during the timed phase: %.1f%%; %d of %d windows kept (steal ≤ %.1f%%), %d latency samples",
		100*ph.steal, ph.kept, ph.windows, 100*ph.stealLimit, len(ph.lat))
}

// sampleBuf returns an empty slice with room for n latency samples, in
// memory outside the Go heap. A heap slice would count towards the
// collector's pacing, and growing one copies it, so peak RSS would jump
// with the op count; these pages turn resident only as samples land, 8
// bytes an op. The mapping lives until the process exits.
func sampleBuf(n int) []int64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]int64, 0, n)
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)[:0]
}

// overheadRatio is the mean traced op latency over the mean untraced one.
func (ph phase) overheadRatio() float64 {
	return ratio(ratio(float64(ph.tracedNs), float64(ph.tracedOps)), ratio(float64(ph.untracedNs), float64(ph.untracedOps)))
}

// settle returns garbage from input generation to the OS and resets the
// RSS high-water mark, so peak RSS covers what the timed phase holds and
// allocates.
func settle() error {
	debug.FreeOSMemory()
	return resetPeakRSS(0)
}

// registryWindow is the solver registry and plan cache at one instant;
// the traced run diffs two of them around the timed phase.
type registryWindow struct {
	reg   flowrel.StatsReport
	cache flowrel.PlanCacheCounters
	mem   memWindow
}

func readRegistry() registryWindow {
	return registryWindow{reg: flowrel.StatsSnapshot(), cache: flowrel.PlanCacheSnapshot(), mem: readMem()}
}

// registryDelta is the activity between two registryWindows.
type registryDelta struct {
	reg   flowrel.StatsReport
	cache flowrel.PlanCacheCounters
	alloc uint64
	gcs   uint32
}

func (w registryWindow) since(prev registryWindow) registryDelta {
	return registryDelta{
		reg: w.reg.Delta(prev.reg),
		cache: flowrel.PlanCacheCounters{
			Hits:      w.cache.Hits - prev.cache.Hits,
			Misses:    w.cache.Misses - prev.cache.Misses,
			Evictions: w.cache.Evictions - prev.cache.Evictions,
		},
		alloc: w.mem.totalAlloc - prev.mem.totalAlloc,
		gcs:   w.mem.numGC - prev.mem.numGC,
	}
}

func (d registryDelta) counter(name string) float64 { return float64(d.reg.Counters[name]) }

func (d registryDelta) timerNs(name string) float64 { return float64(d.reg.Timers[name].Sum) }

// commonLayers fills the per-layer metrics every in-process workload
// reports from a registry delta over ops operations.
func (d registryDelta) commonLayers(m map[string]float64, ops int64) {
	n := float64(ops)
	m["core.max_flow_calls"] = ratio(d.counter("core.max_flow_calls"), n)
	m["core.augmenting_paths"] = ratio(d.counter("core.augmenting_paths"), n)
	m["core.compile_us"] = ratio(d.timerNs("core.compile_time"), n) / 1e3
	m["flowrel.plancache_hit_ratio"] = ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses))
	m["flowrel.plancache_evictions"] = ratio(float64(d.cache.Evictions), n)
	m["runtime.alloc_kb_per_op"] = ratio(float64(d.alloc)/1024, n)
	m["runtime.gc_per_kop"] = ratio(float64(d.gcs)*1000, n)
}

// finishPhase records what every in-process workload reports after its
// timed loop: attempts, latencies, peak RSS, and in a traced run the
// registry-derived layers, live heap and trace reconciliation. keep is
// the workload state the live-heap reading must find reachable.
func (rep *report) finishPhase(e env, ph phase, rec *recorder, delta registryDelta, workload string, keep any) error {
	rep.attempted = ph.ops
	rep.elapsed = ph.elapsed
	rep.lat = ph.lat
	rep.units = float64(ph.units)
	rep.gate = ph.gateNote()
	kb, err := peakRSSKB(0)
	if err != nil {
		return err
	}
	rep.peakKB = kb
	if !e.trace {
		return nil
	}
	rep.layers = map[string]float64{}
	delta.commonLayers(rep.layers, ph.ops)
	rep.layers["runtime.heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(keep)
	rep.layers["trace.unattributed_ratio"] = rec.unattributedRatio()
	rep.layers["trace.overhead_ratio"] = ph.overheadRatio()
	if path := e.traceFile(workload); path != "" {
		return rec.writeFile(path)
	}
	return nil
}
