package main

import (
	"math"
	"math/rand"

	"flowrel"
	"flowrel/internal/assign"
	"flowrel/internal/mincut"
)

// instance is one generated reliability question: a clustered P2P
// overlay and the demand of delivering the stream to its last peer.
type instance struct {
	g   *flowrel.Graph
	dem flowrel.Demand
}

// shape is what compile and evaluate cost depend on: the link counts of
// the two sides of the bottleneck split Compute will choose, the cut
// size k and the assignment family size |𝒟|.
type shape struct{ es, et, k, n int }

// shapeOf predicts the decomposition Compute(g, dem, Config{}) will use,
// from the same cut search and assignment enumeration at their default
// bounds. ok is false when the core rung would decline the instance or
// the cut cannot carry the demand at all.
func shapeOf(inst instance) (shape, bool) {
	bt, err := mincut.Find(inst.g, inst.dem.S, inst.dem.T, 3)
	if err != nil {
		return shape{}, false
	}
	caps := make([]int, bt.K())
	for i, e := range bt.Cut {
		caps[i] = inst.g.Edge(e).Cap
	}
	ds, err := assign.NewSet(caps, inst.dem.D)
	if err != nil || ds.Len() == 0 || ds.Len() > 20 {
		return shape{}, false
	}
	sh := shape{es: bt.Gs.G.NumEdges(), et: bt.Gt.G.NumEdges(), k: bt.K(), n: ds.Len()}
	if sh.es > 20 || sh.et > 20 {
		return shape{}, false
	}
	return sh, true
}

// costBin is the half-octave bin of the paper's structure cost
// |𝒟|·(2^|E_s| + 2^|E_t|): ⌊2·log2(cost)⌋. Measured compile time follows
// it closely (log-log R² ≈ 0.9), so a stream with a fixed bin mix has a
// fixed cost mix whatever the seed.
func costBin(sh shape) int {
	cost := float64(sh.n) * (math.Exp2(float64(sh.es)) + math.Exp2(float64(sh.et)))
	return int(math.Floor(2 * math.Log2(cost)))
}

// clusteredParams fixes the generator's shape knobs; the topology seed
// and failure probabilities come from the stream's rng.
type clusteredParams struct{ side, extra, k, d, maxCap int }

// overlaySpec is one generated overlay kept as the generator's inputs,
// a few dozen bytes, so a long stream does not sit in memory as graphs;
// build makes the same instance every time.
type overlaySpec struct {
	p    clusteredParams
	pf   float64
	seed int64
}

func drawSpec(rng *rand.Rand, p clusteredParams) overlaySpec {
	return overlaySpec{p: p, pf: 0.02 + 0.18*rng.Float64(), seed: rng.Int63()}
}

func (s overlaySpec) build() (instance, bool) {
	o, err := flowrel.ClusteredOverlay(s.p.side, s.p.side+s.p.extra, s.p.k, s.p.d, s.p.maxCap, s.pf, s.seed)
	if err != nil {
		return instance{}, false
	}
	return instance{g: o.G, dem: o.Demand(o.Peers[len(o.Peers)-1])}, true
}

func drawClustered(rng *rand.Rand, p clusteredParams) (instance, bool) {
	return drawSpec(rng, p).build()
}

// findShape draws overlays with parameters p until one decomposes to
// exactly want, so a workload's plans cost the same for every seed.
func findShape(rng *rand.Rand, p clusteredParams, want shape, seen map[string]bool) instance {
	for {
		inst, ok := drawClustered(rng, p)
		if !ok {
			continue
		}
		if sh, ok := shapeOf(inst); !ok || sh != want {
			continue
		}
		if key := flowrel.StructuralHash(inst.g, inst.dem, flowrel.Config{}); !seen[key] {
			seen[key] = true
			return inst
		}
	}
}

// coldFirstBin and coldWeights set the cold-compile cost mix: bins 20–31
// (structure cost 2^10 to 2^16), in hundredths, in proportion to how
// often the generator's draws land in each. Measured over 20,000 draws
// (seed 99): 21.6% are declined by the core rung's bounds; of the rest
// 4.3% fall below 2^10, 82.5% in bins 20–31 and 13.2% above 2^16, up
// to 2^20. The stream covers only the 2^10–2^16 part: the bins above
// cost 10–100 ms a topology, so at their natural share they would take
// most of a run and leave its tail to a handful of topologies. The
// median falls inside bin 26 and the 99th percentile inside the top bin.
const coldFirstBin = 20

var coldWeights = []int{4, 5, 7, 8, 10, 10, 10, 10, 10, 10, 9, 7}

// coldStream returns n distinct topologies (none of them in seen, all
// added to it) whose cost bins follow coldWeights in every block of 100
// consecutive positions, so any prefix a timed run consumes has the same
// cost mix. Sides run from the A3 class (6 nodes) to 10, with k, d and
// capacities drawn so that α|E| and |𝒟| vary.
func coldStream(rng *rand.Rand, n int, seen map[string]bool) []overlaySpec {
	want := make([]int, 0, n+100)
	for len(want) < n {
		var block []int
		for b, w := range coldWeights {
			for j := 0; j < w; j++ {
				block = append(block, b)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		want = append(want, block...)
	}
	want = want[:n]
	open := make([][]int, len(coldWeights))
	for i, b := range want {
		open[b] = append(open[b], i)
	}
	out := make([]overlaySpec, n)
	for filled := 0; filled < n; {
		spec := drawSpec(rng, coldParams(rng))
		inst, ok := spec.build()
		if !ok {
			continue
		}
		sh, ok := shapeOf(inst)
		if !ok {
			continue
		}
		b := costBin(sh) - coldFirstBin
		if b < 0 || b >= len(open) || len(open[b]) == 0 {
			continue
		}
		key := flowrel.StructuralHash(inst.g, inst.dem, flowrel.Config{})
		if seen[key] {
			continue
		}
		seen[key] = true
		out[open[b][0]] = spec
		open[b] = open[b][1:]
		filled++
	}
	return out
}

// coldParams draws the cold-compile generator's shape knobs.
func coldParams(rng *rand.Rand) clusteredParams {
	return clusteredParams{side: 6 + rng.Intn(5), extra: 2 + rng.Intn(3), k: 1 + rng.Intn(3), d: 1 + rng.Intn(3), maxCap: 1 + rng.Intn(3)}
}

// query is one what-if question against one plan: a single scenario
// (answered by Plan.Eval) or a batch (Plan.EvalBatchInto).
type query struct {
	plan      int
	scenarios [][]float64
}

// whatIfMix is one block of 100 queries: how many go to each plan with
// a batch size in [lo, hi]. Eight-lane blocks over two workers make
// latency classes by rounds: a single scenario, one round (2–16
// scenarios), two (17–32) and, on plan 1, two to seven (17–112, which
// fills the latency range up to the top class) and eight (113–128).
// Sorted by latency, the median falls in the middle of plan 0's two-round
// class (30%–70%) and the 99th percentile in the middle of plan 1's
// eight-round class (98%–100%). That class takes several milliseconds, so
// a cheaper query stalled by a preempted CPU stays below it and the tail
// follows the kernel's work rather than how often the host preempts it.
var whatIfMix = []struct{ plan, lo, hi, count int }{
	{0, 1, 1, 10},
	{0, 2, 16, 20},
	{0, 17, 32, 40},
	{1, 1, 1, 10},
	{1, 2, 16, 17},
	{1, 17, 112, 1},
	{1, 113, 128, 2},
}

// whatIfQueries draws n queries over plans whose base failure
// probabilities are bases, following whatIfMix in every block of 100;
// batch sizes within a class are dealt from a shuffled deck, so every
// seed has the same size mix. Each query is a Birnbaum sweep (consecutive
// links forced up then down), a probability sweep (every link scaled by
// factors from 0.5 to 1.5) or independent random re-weightings, in
// rotation.
func whatIfQueries(rng *rand.Rand, n int, bases [][]float64) []query {
	decks := make([][]int, len(whatIfMix))
	deal := func(c int) int {
		if len(decks[c]) == 0 {
			for s := whatIfMix[c].lo; s <= whatIfMix[c].hi; s++ {
				decks[c] = append(decks[c], s)
			}
			rng.Shuffle(len(decks[c]), func(i, j int) { decks[c][i], decks[c][j] = decks[c][j], decks[c][i] })
		}
		s := decks[c][0]
		decks[c] = decks[c][1:]
		return s
	}
	var block []int
	for c, m := range whatIfMix {
		for j := 0; j < m.count; j++ {
			block = append(block, c)
		}
	}
	qs := make([]query, 0, n)
	for len(qs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			plan := whatIfMix[c].plan
			base := bases[plan]
			sc := make([][]float64, deal(c))
			kind := len(qs) % 3
			link := rng.Intn(len(base))
			for j := range sc {
				v := append([]float64(nil), base...)
				switch kind {
				case 0: // Birnbaum: link up, then down, then the next link
					v[(link+j/2)%len(v)] = float64(j % 2)
				case 1: // sweep
					f := 0.5 + float64(j+1)/float64(len(sc))
					for e := range v {
						v[e] = math.Min(1, v[e]*f)
					}
				default: // re-weighting
					for e := range v {
						v[e] = 0.01 + 0.29*rng.Float64()
					}
				}
				sc[j] = v
			}
			qs = append(qs, query{plan: plan, scenarios: sc})
		}
	}
	return qs[:n]
}
