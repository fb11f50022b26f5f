package chain

import (
	"sort"

	"flowrel/internal/graph"
	"flowrel/internal/mincut"
)

// Find greedily assembles a chain of pairwise disjoint minimal s–t cuts
// (each with at most maxCutSize links, at most maxCuts of them) that
// validates as a chain decomposition, preferring small cuts and balanced
// segments. It returns the cut sequence for Solve, or an error when not
// even a single usable cut exists.
func Find(g *graph.Graph, dem graph.Demand, maxCutSize, maxCuts int) ([][]graph.EdgeID, error) {
	candidates := mincut.EnumerateMinimal(g, dem.S, dem.T, maxCutSize)
	// Prefer small cuts; among equals, earliest links first (the
	// enumeration order is already deterministic).
	sort.SliceStable(candidates, func(i, j int) bool {
		return len(candidates[i]) < len(candidates[j])
	})
	var chosen [][]graph.EdgeID
	for _, cand := range candidates {
		if maxCuts > 0 && len(chosen) >= maxCuts {
			break
		}
		trial := append(append([][]graph.EdgeID(nil), chosen...), cand)
		if _, err := validateChain(g, dem, trial); err == nil {
			chosen = trial
		}
	}
	if len(chosen) == 0 {
		if _, err := mincut.Find(g, dem.S, dem.T, maxCutSize); err != nil {
			return nil, err
		}
		// A single bottleneck exists but did not validate as a chain —
		// cannot happen (one minimal cut is always a chain of length 1),
		// so reaching here means the candidate list was empty.
		return nil, errNoChain
	}
	return chosen, nil
}

var errNoChain = chainError("chain: no usable cut sequence found")

type chainError string

func (e chainError) Error() string { return string(e) }
