package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"flowrel"
)

// cold-compile: a seeded stream of distinct clustered topologies, each
// answered by one flowrel.Compute(g, dem, Config{}) from one goroutine.
// Cut search, side build and kernel build carry the work; evaluation is
// one Eval per topology; delta compile and relcalcd are bypassed. Every
// topology is new to the process, so no plan-cache size or policy can
// turn the stream into hits. The stream is kept as generator inputs and
// each topology built just before its Compute with the clock stopped, so
// peak RSS is the program's, not the stream's.
const (
	coldSetupReps = 5
	coldWarmup    = 100  // topologies per set-up repetition: one block of the bin mix
	coldPerSecond = 1000 // stream length per timed second, well above the measured 250–610/s
)

func runColdCompile(e env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	seen := map[string]bool{}
	warm := make([][]overlaySpec, coldSetupReps)
	for r := range warm {
		warm[r] = coldStream(rng, coldWarmup, seen)
	}
	stream := coldStream(rng, coldPerSecond*int(e.seconds/time.Second), seen)

	// Set-up: warm the process on topologies the stream never repeats,
	// the same bin mix in every repetition.
	rep := &report{}
	for _, specs := range warm {
		insts := make([]instance, len(specs))
		for i, s := range specs {
			insts[i], _ = s.build()
		}
		t0 := time.Now()
		for _, in := range insts {
			if _, err := flowrel.Compute(in.g, in.dem, flowrel.Config{}); err != nil {
				return nil, fmt.Errorf("set-up compute: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	rel := make([]float64, len(stream))
	rung := make([]string, len(stream))
	var rec *recorder
	if e.trace {
		rec = newRecorder(2000)
	}
	if err := settle(); err != nil {
		return nil, err
	}
	before := readRegistry()
	var in instance
	build := func(i int) { in, _ = stream[i].build() }
	ph := timedLoop(e.seconds, len(stream), e.tracePeriod(1), build, func(i int, traced bool) int64 {
		var r flowrel.Report
		var err error
		if traced {
			root := rec.begin("op", -1)
			call := rec.begin("flowrel.Compute", root)
			tr := &phaseTracer{rec: rec, rung: rec.add("flowrel.ladder.core", call, -1, -1)}
			r, err = flowrel.Compute(in.g, in.dem, flowrel.Config{Tracer: tr})
			rec.end(call)
			rec.end(root)
			rec.finish()
		} else {
			r, err = flowrel.Compute(in.g, in.dem, flowrel.Config{})
		}
		if err != nil || r.Partial {
			rel[i], rung[i] = math.NaN(), "error"
		} else {
			rel[i], rung[i] = r.Reliability, r.Rung
		}
		return 1
	})
	delta := readRegistry().since(before)
	if err := rep.finishPhase(e, ph, rec, delta, "cold-compile", nil); err != nil {
		return nil, err
	}
	if e.trace {
		n := float64(ph.tracedOps)
		cut := float64(rec.totals("mincut.cut_search").Total)
		side := float64(rec.totals("core.side_build").Total)
		call := float64(rec.totals("flowrel.Compute").Total)
		rep.layers["mincut.cut_search_us"] = ratio(cut, n) / 1e3
		rep.layers["core.side_build_us"] = ratio(side, n) / 1e3
		rep.layers["flowrel.compute_rest_us"] = ratio(call-cut-side, n) / 1e3
		rep.layers["core.frontier_call_ratio"] = ratio(delta.counter("core.frontier_max_flow_calls"), delta.counter("core.realization_checks"))
	}

	// Checks, outside the timed phase: every answer within 1e-12 of the
	// factoring engine, from the core rung. Factoring answers these
	// instances ~67× faster than the core path, so a silent fall-through
	// would read as a speed-up.
	for i := 0; i < int(ph.ops); i++ {
		build(i)
		if rung[i] == "error" {
			rep.errors++
			continue
		}
		ref, err := flowrel.Compute(in.g, in.dem, flowrel.Config{Engine: flowrel.EngineFactoring})
		if err != nil {
			return nil, fmt.Errorf("reference for topology %d: %w", i, err)
		}
		if !coldAnswerOK(rel[i], rung[i], ref.Reliability) {
			rep.wrong++
		}
	}
	return rep, nil
}

// coldAnswerOK accepts a Compute answer when the core rung produced it
// and it is within 1e-12 of the reference.
func coldAnswerOK(got float64, rung string, want float64) bool {
	return rung == "core" && math.Abs(got-want) <= 1e-12
}
