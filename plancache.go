package flowrel

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"flowrel/internal/anytime"
	"flowrel/internal/core"
	"flowrel/internal/stats"
)

// The plan cache memoizes compiled bottleneck plans by the *structure* of
// the instance — topology, capacities, demand and the decomposition
// bounds, but NOT the failure probabilities, which belong to the evaluate
// phase. Repeated Compute/CompilePlan calls on the same structure (a sweep
// that only re-weights links, a what-if loop, a dashboard refresh) skip
// the entire O(2^{α|E|}) side-array construction and pay only the
// microsecond evaluation. Hits return results bit-identical to a cold
// compile, because evaluation is deterministic given the plan.
//
// The cache is striped into planCacheShards independent shards, selected
// by the first byte of the structural hash. Each shard owns its mutex,
// LRU list and in-flight compile table, so a hot structural key — one
// subscriber topology every edge server asks about — serializes only the
// callers that actually share it; lookups and compiles of distinct keys
// on distinct shards never touch the same lock.

// defaultPlanCacheCapacity is the default number of compiled plans kept.
// A plan's dominant memory is per side mask: 4 bytes of kernel
// permutation and |𝒟|/8 bytes of rows (≤ 6.5 MiB a side at the default
// MaxSideEdges 20), plus 64 bytes in each pooled eight-lane scratch,
// which a plan whose scratch would pass 32 MiB does without.
const defaultPlanCacheCapacity = 64

// planCacheShards is the default stripe count (a power of two; the shard
// index is the first byte of the SHA-256 structural key masked down).
const planCacheShards = 16

// planShard is one stripe of the cache: a self-contained LRU with its own
// lock, counters and singleflight table. All cross-shard state lives in
// planCacheType; a shard never takes another shard's lock.
type planShard struct {
	mu       sync.Mutex
	capacity int        // per-shard entry bound; ≤ 0 disables caching in this shard
	order    *list.List // front = most recently used; values are *planEntry
	byKey    map[string]*list.Element
	hits     uint64
	misses   uint64
	evicts   uint64
	dedups   uint64
	inflight map[string]*inflightCompile
}

type planCacheType struct {
	shards   []*planShard
	capacity int // configured total capacity, split across shards
	// off mirrors capacity ≤ 0 for lock-free reads: with caching disabled
	// the lookup paths skip the structural hash and the singleflight
	// machinery entirely and compile directly.
	off atomic.Bool
}

type planEntry struct {
	key  string
	plan *core.Plan
}

// inflightCompile is the singleflight cell for one structural key: the
// first caller (leader) compiles while later callers wait on done. A
// leader failure leaves plan nil with err set; waiters then retry the
// whole lookup so a transient cancellation doesn't poison the key.
type inflightCompile struct {
	done chan struct{}
	plan *core.Plan
	err  error
}

// Registry mirrors of the cache counters, so the expvar/-stats surfaces
// see cache behaviour without a separate code path. The mutex-guarded
// uint64 fields on the shards remain the source of truth for tests (they
// are exact regardless of stats.SetEnabled).
var (
	mCacheHits   = stats.Default.Counter("plancache.hits")
	mCacheMisses = stats.Default.Counter("plancache.misses")
	mCacheEvicts = stats.Default.Counter("plancache.evictions")
	mCacheDedups = stats.Default.Counter("plancache.compile_dedup")
)

// newPlanCache builds a cache with the given stripe count (rounded up to
// a power of two) and total capacity.
func newPlanCache(shards, capacity int) *planCacheType {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &planCacheType{shards: make([]*planShard, n)}
	for i := range c.shards {
		c.shards[i] = &planShard{
			order:    list.New(),
			byKey:    make(map[string]*list.Element),
			inflight: make(map[string]*inflightCompile),
		}
	}
	c.setCapacity(capacity)
	return c
}

var planCache = newPlanCache(planCacheShards, defaultPlanCacheCapacity)

// shardIndex maps a structural key to its stripe. SHA-256 output is
// uniform, so the first byte alone spreads keys evenly.
func (c *planCacheType) shardIndex(key string) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]) & (len(c.shards) - 1)
}

// shardFor returns the stripe owning key.
func (c *planCacheType) shardFor(key string) *planShard {
	return c.shards[c.shardIndex(key)]
}

// setCapacity records the total capacity and splits it across shards,
// evicting per shard as needed. With a single shard the per-shard bound
// equals the total, preserving the exact global-LRU semantics; with many
// shards each holds at most ⌈capacity/shards⌉ entries, so the total stays
// within one rounding step of the configured bound.
func (c *planCacheType) setCapacity(n int) {
	c.capacity = n
	c.off.Store(n <= 0)
	per := 0
	if n > 0 {
		per = (n + len(c.shards) - 1) / len(c.shards)
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.capacity = per
		evictTo := per
		if n <= 0 {
			evictTo = 0
		}
		s.evictOverCapacityLocked(evictTo)
		s.mu.Unlock()
	}
}

// acquire resolves one lookup atomically within the key's shard: a cached
// plan (hit), an in-flight compile to wait on (dedup), or leadership of a
// new compile (miss). Counting here keeps the three outcomes mutually
// exclusive — hits + misses + dedups equals total lookups, and misses
// equals compiles started.
func (s *planShard) acquire(key string) (p *core.Plan, hit bool, fl *inflightCompile, leader bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		s.hits++
		mCacheHits.Inc()
		return el.Value.(*planEntry).plan, true, nil, false
	}
	if fl, ok := s.inflight[key]; ok {
		s.dedups++
		mCacheDedups.Inc()
		return nil, false, fl, false
	}
	s.misses++
	mCacheMisses.Inc()
	fl = &inflightCompile{done: make(chan struct{})}
	s.inflight[key] = fl
	return nil, false, fl, true
}

// publish ends the in-flight compile for key and, when it succeeded,
// caches its plan — under one lock, so no lookup can land between the two
// and start a second compile of the same structure.
func (s *planShard) publish(key string, p *core.Plan, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, key)
	if err != nil || s.capacity <= 0 {
		return
	}
	if el, ok := s.byKey[key]; ok {
		el.Value.(*planEntry).plan = p
		s.order.MoveToFront(el)
		return
	}
	s.byKey[key] = s.order.PushFront(&planEntry{key: key, plan: p})
	s.evictOverCapacityLocked(s.capacity)
}

// evictOverCapacityLocked trims LRU entries beyond n, counting each
// eviction. Callers hold s.mu.
func (s *planShard) evictOverCapacityLocked(n int) {
	for s.order.Len() > n {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*planEntry).key)
		s.evicts++
		mCacheEvicts.Inc()
	}
}

// ResetPlanCache drops every cached compiled plan and zeroes the hit,
// miss, eviction and dedup counters. Use it in benchmarks to measure cold
// compiles, or to release the realization-array memory of plans no longer
// needed. In-flight compiles are unaffected: their leaders publish into
// the fresh cache when done.
func ResetPlanCache() {
	for _, s := range planCache.shards {
		s.mu.Lock()
		s.order.Init()
		s.byKey = make(map[string]*list.Element)
		s.hits, s.misses = 0, 0
		s.evicts, s.dedups = 0, 0
		s.mu.Unlock()
	}
}

// SetPlanCacheCapacity bounds the number of compiled plans kept (LRU
// eviction beyond it); n ≤ 0 disables caching entirely. The default is
// 64. The bound is split evenly across the cache's shards, so with the
// default 16 stripes the total entry count stays within ⌈n/16⌉·16 of the
// requested bound.
func SetPlanCacheCapacity(n int) {
	planCache.setCapacity(n)
}

// PlanCacheStats reports the cache's lifetime hit and miss counts and its
// current entry count (since process start or the last ResetPlanCache),
// summed across shards.
func PlanCacheStats() (hits, misses uint64, entries int) {
	pc := PlanCacheSnapshot()
	return pc.Hits, pc.Misses, pc.Entries
}

// PlanCacheCounters is the full accounting snapshot of the plan cache.
type PlanCacheCounters struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	CompileDedup uint64 `json:"compile_dedup"`
	Entries      int    `json:"entries"`
	Shards       int    `json:"shards"`
}

// PlanCacheSnapshot returns every plan-cache counter at once: hits,
// misses, LRU evictions, compiles saved by in-flight deduplication, the
// current entry count, and the shard count. Counters accumulate since
// process start or the last ResetPlanCache and are summed across shards;
// the aggregate is not a single atomic cut across stripes, but each
// shard's contribution is internally consistent.
func PlanCacheSnapshot() PlanCacheCounters {
	pc := PlanCacheCounters{Shards: len(planCache.shards)}
	for _, s := range planCache.shards {
		s.mu.Lock()
		pc.Hits += s.hits
		pc.Misses += s.misses
		pc.Evictions += s.evicts
		pc.CompileDedup += s.dedups
		pc.Entries += s.order.Len()
		s.mu.Unlock()
	}
	return pc
}

// planKey is the canonical structural hash: topology (node count plus
// every link's endpoints), capacities, demand, and the Config fields that
// steer the decomposition. Failure probabilities are deliberately
// excluded — they are evaluate-phase inputs.
func planKey(g *Graph, dem Demand, cfg Config) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeInt := func(v int64) {
		n := binary.PutVarint(buf[:], v)
		h.Write(buf[:n])
	}
	h.Write([]byte("flowrel-plan-v1"))
	writeInt(int64(g.NumNodes()))
	writeInt(int64(g.NumEdges()))
	for _, e := range g.Edges() {
		writeInt(int64(e.U))
		writeInt(int64(e.V))
		writeInt(int64(e.Cap))
	}
	writeInt(int64(dem.S))
	writeInt(int64(dem.T))
	writeInt(int64(dem.D))
	// Effective decomposition bounds (defaults resolved, so spelling the
	// default explicitly still hits).
	mb, mse, mas := cfg.MaxBottleneck, cfg.MaxSideEdges, cfg.MaxAssignmentSet
	if mb <= 0 {
		mb = 3
	}
	if mse <= 0 {
		mse = 20
	}
	if mas <= 0 {
		mas = 20
	}
	writeInt(int64(mb))
	writeInt(int64(mse))
	writeInt(int64(mas))
	if cfg.Bottleneck == nil {
		writeInt(-1)
	} else {
		writeInt(int64(len(cfg.Bottleneck)))
		for _, e := range cfg.Bottleneck {
			writeInt(int64(e))
		}
	}
	return string(h.Sum(nil))
}

// StructuralHash returns the hex-encoded structural cache key of
// (g, dem, cfg): the hash the plan cache shards and deduplicates compiles
// by. Two instances share a hash exactly when they share topology,
// capacities, demand and decomposition bounds — failure probabilities do
// not contribute. Services use it as a stable plan handle.
func StructuralHash(g *Graph, dem Demand, cfg Config) string {
	return hex.EncodeToString([]byte(planKey(g, dem, cfg)))
}

// coreOptions carries the Config fields the decomposition reads.
func coreOptions(cfg Config, ctl *anytime.Ctl) core.Options {
	return core.Options{
		Bottleneck:       cfg.Bottleneck,
		MaxBottleneck:    cfg.MaxBottleneck,
		MaxSideEdges:     cfg.MaxSideEdges,
		MaxAssignmentSet: cfg.MaxAssignmentSet,
		Ctl:              ctl,
	}
}

// planFor returns the compiled plan for (g, dem, cfg), from cache when the
// structure was compiled before, compiling (and caching) otherwise. The
// second return reports a cache hit.
func planFor(ctl *anytime.Ctl, g *Graph, dem Demand, cfg Config) (*core.Plan, bool, error) {
	return cachedPlan(ctl, g, dem, cfg, func() (*core.Plan, error) {
		return core.Compile(g, dem, coreOptions(cfg, ctl))
	})
}

// planForMutate is planFor for a mutation successor: the mutated graph's
// own structural key is looked up first — churn cycles (a peer leaves and
// rejoins, a capacity flaps back) resolve to cache hits with zero compile
// work — and on a miss the leader runs the delta compiler against the
// parent plan instead of a cold compile. The child is cached under its
// own key, so it never aliases the parent's entry and later CompilePlan
// calls on the mutated structure hit it directly.
func planForMutate(ctl *anytime.Ctl, parent *core.Plan, gOld, g *Graph, dem Demand, cfg Config, mut Mutation, remap []EdgeID) (*core.Plan, bool, error) {
	return cachedPlan(ctl, g, dem, cfg, func() (*core.Plan, error) {
		return core.MutatePlan(parent, gOld, g, dem, mut, remap, coreOptions(cfg, ctl))
	})
}

// cachedPlan is the lookup planFor and planForMutate share; compile builds
// the plan on a miss. Concurrent calls for the same structure are
// deduplicated within its shard: one leader compiles, the rest wait for
// its plan (each saved compile increments the dedup counter). If the
// leader fails — typically a budget or cancellation error scoped to *its*
// controller — waiters retry with their own, so one caller's tight budget
// cannot fail another's compile.
func cachedPlan(ctl *anytime.Ctl, g *Graph, dem Demand, cfg Config, compile func() (*core.Plan, error)) (*core.Plan, bool, error) {
	if planCache.off.Load() {
		p, err := compile()
		return p, false, err
	}
	key := planKey(g, dem, cfg)
	shard := planCache.shardFor(key)
	for {
		p, hit, fl, leader := shard.acquire(key)
		if hit {
			return p, true, nil
		}
		if !leader {
			select {
			case <-fl.done:
			case <-ctl.Context().Done():
				err := ctl.Err()
				if err == nil {
					err = ctl.Context().Err()
				}
				return nil, false, err
			}
			if fl.err == nil {
				return fl.plan, true, nil
			}
			// Leader failed; loop and compile under our own controller.
			continue
		}

		p, err := shard.lead(key, fl, compile)
		if err != nil {
			return nil, false, err
		}
		return p, false, nil
	}
}

// errCompilePanicked is what waiters on a leader whose compile panicked
// see; like any leader failure, it sends them to compile themselves.
var errCompilePanicked = errors.New("flowrel: plan compile panicked")

// lead runs compile as key's leader and releases the key on every exit.
// A panicking compile publishes as a failed one, so the key stays usable
// and its waiters retry, and the panic goes on to the leader's caller.
func (s *planShard) lead(key string, fl *inflightCompile, compile func() (*core.Plan, error)) (*core.Plan, error) {
	fl.err = errCompilePanicked // stands unless compile returns
	defer func() {
		s.publish(key, fl.plan, fl.err)
		close(fl.done)
	}()
	fl.plan, fl.err = compile()
	return fl.plan, fl.err
}
