// Package sim is a session-level P2P streaming simulator: each session
// draws an independent failure configuration of the overlay links, routes
// as many of the d unit-rate sub-streams as the surviving overlay can
// carry (max flow), and decomposes them into delivery paths. Aggregated
// over many sessions it yields an empirical delivery rate that must agree
// with the exact reliability engines — the library's end-to-end
// cross-check — plus streaming-quality statistics (partial delivery,
// path lengths) that the exact engines do not expose.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"flowrel/internal/anytime"
	"flowrel/internal/bitset"
	"flowrel/internal/flowdecomp"
	"flowrel/internal/graph"
	"flowrel/internal/maxflow"
)

// Config tunes a simulation run.
type Config struct {
	Sessions    int   // number of independent streaming sessions
	Seed        int64 // PRNG seed; runs are deterministic per seed
	Parallelism int   // worker goroutines; ≤ 0 = GOMAXPROCS
	// CollectPaths enables per-session path decomposition (hop
	// statistics); costs one extra pass per session.
	CollectPaths bool
	// Ctl optionally makes the run cancellable: an interrupted run reports
	// statistics over the sessions actually simulated, with Partial set.
	Ctl *anytime.Ctl
}

// Report aggregates a simulation run.
type Report struct {
	Sessions  int
	Delivered int // sessions in which all d sub-streams arrived
	// DeliveryRate = Delivered/Sessions: the empirical reliability.
	DeliveryRate float64
	// StdErr is the standard error of DeliveryRate.
	StdErr float64
	// MeanSubstreams is the average number of sub-streams delivered
	// (capped at d): the partial-delivery quality metric.
	MeanSubstreams float64
	// MeanHops is the average delivery-path length over all delivered
	// sub-streams (0 when CollectPaths is off or nothing was delivered).
	MeanHops float64
	// Partial reports an interrupted run; Sessions then counts only the
	// sessions actually simulated and all statistics cover those.
	Partial bool
	// Reason says why an interrupted run stopped.
	Reason string
}

// Run simulates the demand on the overlay.
func Run(g *graph.Graph, dem graph.Demand, cfg Config) (Report, error) {
	if g == nil {
		return Report{}, fmt.Errorf("sim: nil graph")
	}
	if err := dem.Validate(g); err != nil {
		return Report{}, err
	}
	if cfg.Sessions < 1 {
		return Report{}, fmt.Errorf("sim: session count %d must be ≥ 1", cfg.Sessions)
	}
	proto, handles := maxflow.FromGraph(g)
	pFail := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		pFail[i] = e.PFail
	}

	const blockSize = 1024
	nBlocks := (cfg.Sessions + blockSize - 1) / blockSize
	type blockStats struct {
		done       int
		delivered  int
		substreams int64
		hops       int64
		pathCount  int64
	}
	blocks := make([]blockStats, nBlocks)
	err := anytime.Run(cfg.Ctl, cfg.Parallelism, nBlocks, "simulation worker", func(bi int, cur *uint64) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(bi)*0x5851F42D4C957F2D))
		nw := proto.Clone()
		var alive *bitset.Set
		if cfg.CollectPaths {
			alive = bitset.New(g.NumEdges())
		}
		var st blockStats
		st.done = anytime.Sample(cfg.Ctl, nil, nw, min(blockSize, cfg.Sessions-bi*blockSize), cur, func() {
			if alive != nil {
				alive.Reset()
			}
			for j := range handles {
				up := rng.Float64() >= pFail[j]
				nw.SetEnabled(handles[j], up)
				if up && alive != nil {
					alive.Set(j)
				}
			}
			got := nw.MaxFlow(int32(dem.S), int32(dem.T), dem.D)
			st.substreams += int64(got)
			if got >= dem.D {
				st.delivered++
			}
			if cfg.CollectPaths && got > 0 {
				paths, err := flowdecomp.Paths(g, dem, alive)
				if err == nil {
					for _, p := range paths {
						st.hops += int64(p.Hops())
						st.pathCount++
					}
				}
			}
		})
		blocks[bi] = st
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{}
	var substreams, hops, pathCount int64
	for i := range blocks {
		rep.Sessions += blocks[i].done
		rep.Delivered += blocks[i].delivered
		substreams += blocks[i].substreams
		hops += blocks[i].hops
		pathCount += blocks[i].pathCount
	}
	if rep.Sessions < cfg.Sessions {
		rep.Partial = true
		rep.Reason = cfg.Ctl.Reason()
	}
	if rep.Sessions == 0 {
		return rep, nil
	}
	rep.DeliveryRate = float64(rep.Delivered) / float64(rep.Sessions)
	rep.StdErr = math.Sqrt(rep.DeliveryRate * (1 - rep.DeliveryRate) / float64(rep.Sessions))
	rep.MeanSubstreams = float64(substreams) / float64(rep.Sessions)
	if pathCount > 0 {
		rep.MeanHops = float64(hops) / float64(pathCount)
	}
	return rep, nil
}
