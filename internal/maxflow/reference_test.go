package maxflow

// Edmonds–Karp and push–relabel: two max-flow solvers structurally
// different from Dinic, kept in the tests to cross-check it.

// MaxFlowEK resets all flow and computes the s→t max flow with the
// Edmonds–Karp algorithm (BFS shortest augmenting paths). It exists as an
// independent implementation to cross-check Dinic.
func (nw *Network) MaxFlowEK(s, t int32, limit int) int {
	nw.ResetFlow()
	nw.Stats.MaxFlowCalls++
	lim := int32(inf)
	if limit >= 0 {
		lim = int32(limit)
	}
	parent := make([]int32, nw.n) // arc index used to reach node, -1 none
	var total int32
	for total < lim {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		nw.queue = nw.queue[:0]
		nw.queue = append(nw.queue, s)
		found := false
		for qi := 0; qi < len(nw.queue) && !found; qi++ {
			u := nw.queue[qi]
			for _, ai := range nw.adj[u] {
				a := nw.arcs[ai]
				if a.cap > 0 && parent[a.to] == -1 {
					parent[a.to] = ai
					if a.to == t {
						found = true
						break
					}
					nw.queue = append(nw.queue, a.to)
				}
			}
		}
		if !found {
			break
		}
		// bottleneck
		push := lim - total
		for v := t; v != s; {
			ai := parent[v]
			if c := nw.arcs[ai].cap; c < push {
				push = c
			}
			v = nw.arcs[ai^1].to
		}
		for v := t; v != s; {
			ai := parent[v]
			nw.arcs[ai].cap -= push
			nw.arcs[ai^1].cap += push
			v = nw.arcs[ai^1].to
		}
		nw.Stats.AugmentingPaths++
		total += push
	}
	nw.Stats.AugmentUnits += int64(total)
	return int(total)
}

// MaxFlowPR resets all flow and computes the s→t max flow with the FIFO
// push–relabel algorithm (with the gap heuristic). It is a third,
// structurally different implementation kept alongside Dinic and
// Edmonds–Karp purely for cross-validation: three independent algorithms
// agreeing on randomized networks is strong evidence none of them is
// wrong. It does not support an early-exit limit (push–relabel discharges
// excess globally), so the engines use Dinic; tests use all three.
//
// Only the returned value is meaningful: the network is left holding a
// maximum preflow (stranded excess is not returned to the source), so do
// not inspect per-edge flows or residuals afterwards — call ResetFlow or
// one of the augmenting-path solvers first.
func (nw *Network) MaxFlowPR(s, t int32) int {
	if s == t {
		panic("maxflow: source equals sink")
	}
	nw.ResetFlow()
	nw.Stats.MaxFlowCalls++
	n := nw.n
	height := make([]int32, n)
	excess := make([]int64, n)
	count := make([]int32, 2*n+1) // nodes per height, for the gap heuristic
	height[s] = int32(n)
	count[0] = int32(n - 1)
	count[n] = 1

	queue := make([]int32, 0, n)
	inQueue := make([]bool, n)
	enqueue := func(v int32) {
		if !inQueue[v] && v != s && v != t && excess[v] > 0 {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}

	push := func(ai int32) {
		a := &nw.arcs[ai]
		u := nw.arcs[ai^1].to
		v := a.to
		d := excess[u]
		if int64(a.cap) < d {
			d = int64(a.cap)
		}
		if d <= 0 || height[u] != height[v]+1 {
			return
		}
		a.cap -= int32(d)
		nw.arcs[ai^1].cap += int32(d)
		excess[u] -= d
		excess[v] += d
		enqueue(v)
	}

	// Saturate all source arcs.
	for _, ai := range nw.adj[s] {
		a := &nw.arcs[ai]
		if a.cap > 0 && nw.arcs[ai^1].to == s {
			d := int64(a.cap)
			excess[s] += d // formal; source excess is unbounded
			av := a.to
			a.cap = 0
			nw.arcs[ai^1].cap += int32(d)
			excess[av] += d
			enqueue(av)
		}
	}

	relabel := func(u int32) {
		minH := int32(2 * n)
		for _, ai := range nw.adj[u] {
			a := nw.arcs[ai]
			if a.cap > 0 && nw.arcs[ai^1].to == u && height[a.to] < minH {
				minH = height[a.to]
			}
		}
		old := height[u]
		count[old]--
		if count[old] == 0 && old < int32(n) {
			// Gap heuristic: heights (old, n) are unreachable; lift them
			// past n so their excess returns to the source side.
			for v := int32(0); v < int32(n); v++ {
				if height[v] > old && height[v] < int32(n) {
					count[height[v]]--
					height[v] = int32(n) + 1
					count[height[v]]++
				}
			}
		}
		if minH < int32(2*n) {
			height[u] = minH + 1
		} else {
			height[u] = int32(2 * n)
		}
		count[height[u]]++
	}

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for excess[u] > 0 {
			pushed := false
			for _, ai := range nw.adj[u] {
				if nw.arcs[ai^1].to != u {
					continue // incoming arc representation
				}
				if nw.arcs[ai].cap > 0 && height[u] == height[nw.arcs[ai].to]+1 {
					push(ai)
					pushed = true
					if excess[u] == 0 {
						break
					}
				}
			}
			if excess[u] == 0 {
				break
			}
			if !pushed {
				if height[u] >= int32(2*n) {
					break // cannot route anywhere; stranded excess flows back
				}
				relabel(u)
			}
		}
		if excess[u] > 0 && height[u] < int32(2*n) {
			enqueue(u)
		}
	}
	nw.Stats.AugmentUnits += excess[t]
	return int(excess[t])
}
