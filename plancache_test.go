package flowrel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flowrel/internal/anytime"
	"flowrel/internal/core"
)

// cacheTestInstance builds a tiny two-path instance whose structure is
// distinguished by the capacity of its first link, so successive calls
// with different caps occupy distinct plan-cache slots.
func cacheTestInstance(t testing.TB, cap int) (*Graph, Demand) {
	t.Helper()
	b := NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, cap, 0.1)
	b.AddEdge(a, tt, cap, 0.1)
	b.AddEdge(s, tt, 1, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, Demand{S: s, T: tt, D: 1}
}

// withPlanCacheShards swaps the process cache for a fresh one with the
// given stripe count for the duration of the test. Counters start at
// zero; the original cache (and whatever it held) is restored afterwards.
func withPlanCacheShards(t *testing.T, shards, capacity int) {
	t.Helper()
	old := planCache
	planCache = newPlanCache(shards, capacity)
	t.Cleanup(func() { planCache = old })
}

// TestPlanCacheAccounting fills the cache past capacity and checks every
// counter: evictions match the overflow, a re-compile of an evicted
// structure counts as a miss, and hits stay hits. A single shard pins the
// exact global-LRU semantics; the sharded default only changes which
// entries share an LRU list, not what counts as a hit or a miss.
func TestPlanCacheAccounting(t *testing.T) {
	withPlanCacheShards(t, 1, 2)

	// Four distinct structures through a capacity-2 cache: 4 misses, 2
	// evictions (caps 1 and 2 fall out), entries pinned at 2.
	for cap := 1; cap <= 4; cap++ {
		g, dem := cacheTestInstance(t, cap)
		if _, err := CompilePlan(g, dem, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	pc := PlanCacheSnapshot()
	if pc.Misses != 4 || pc.Hits != 0 {
		t.Errorf("after 4 cold compiles: hits=%d misses=%d, want 0/4", pc.Hits, pc.Misses)
	}
	if pc.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", pc.Evictions)
	}
	if pc.Entries != 2 {
		t.Errorf("entries = %d, want 2", pc.Entries)
	}

	// The two resident structures (caps 3 and 4) hit.
	for cap := 3; cap <= 4; cap++ {
		g, dem := cacheTestInstance(t, cap)
		if _, err := CompilePlan(g, dem, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if pc = PlanCacheSnapshot(); pc.Hits != 2 {
		t.Errorf("hits = %d, want 2", pc.Hits)
	}

	// An evicted structure re-compiles: a miss (not a hit), plus one more
	// eviction to make room.
	g, dem := cacheTestInstance(t, 1)
	if _, err := CompilePlan(g, dem, Config{}); err != nil {
		t.Fatal(err)
	}
	pc = PlanCacheSnapshot()
	if pc.Misses != 5 {
		t.Errorf("re-compile after eviction: misses = %d, want 5", pc.Misses)
	}
	if pc.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", pc.Evictions)
	}

	// Shrinking the capacity evicts immediately.
	SetPlanCacheCapacity(1)
	if pc = PlanCacheSnapshot(); pc.Evictions != 4 || pc.Entries != 1 {
		t.Errorf("after shrink: evictions=%d entries=%d, want 4/1", pc.Evictions, pc.Entries)
	}

	// The legacy accessor agrees with the snapshot.
	hits, misses, entries := PlanCacheStats()
	if hits != pc.Hits || misses != pc.Misses || entries != pc.Entries {
		t.Errorf("PlanCacheStats (%d,%d,%d) disagrees with snapshot %+v", hits, misses, entries, pc)
	}
}

// TestPlanCacheCompileDedup races many goroutines compiling the same
// cold structure: exactly one compiles (the rest either dedup onto the
// leader's in-flight compile or hit the freshly cached plan), and the
// resulting plans answer identically. Run under -race this also proves
// the singleflight path is clean.
func TestPlanCacheCompileDedup(t *testing.T) {
	ResetPlanCache()
	t.Cleanup(ResetPlanCache)
	g, dem := cacheTestInstance(t, 2)

	const workers = 8
	var wg sync.WaitGroup
	vals := make([]float64, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan, err := CompilePlan(g, dem, Config{})
			if err != nil {
				errs[i] = err
				return
			}
			vals[i], errs[i] = plan.Eval(nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < workers; i++ {
		if fmt.Sprintf("%.15g", vals[i]) != fmt.Sprintf("%.15g", vals[0]) {
			t.Fatalf("worker %d got %v, worker 0 got %v", i, vals[i], vals[0])
		}
	}

	pc := PlanCacheSnapshot()
	if pc.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile for %d concurrent callers", pc.Misses, workers)
	}
	if got := pc.Hits + pc.CompileDedup; got != workers-1 {
		t.Errorf("hits (%d) + deduped (%d) = %d, want %d", pc.Hits, pc.CompileDedup, got, workers-1)
	}
}

// distinctShardInstances returns two cache-test capacities whose
// structural keys land on different shards of the current cache, plus
// those keys. With 16 stripes and a uniform hash this needs only a
// handful of candidates.
func distinctShardInstances(t *testing.T) (capA, capB int, keyA, keyB string) {
	t.Helper()
	firstCap, firstKey := 0, ""
	for cap := 1; cap <= 64; cap++ {
		g, dem := cacheTestInstance(t, cap)
		key := planKey(g, dem, Config{})
		if firstCap == 0 {
			firstCap, firstKey = cap, key
			continue
		}
		if planCache.shardIndex(key) != planCache.shardIndex(firstKey) {
			return firstCap, cap, firstKey, key
		}
	}
	t.Fatal("no two instances landed on distinct shards among 64 candidates")
	return 0, 0, "", ""
}

// TestPlanCacheShardIndependence is the non-contention regression test:
// two hot keys whose structural hashes land on different shard indices
// must resolve to different shard objects — and therefore different
// mutexes — so a compile or lookup storm on one cannot serialize the
// other. Asserted structurally via the shard index, not via timing.
func TestPlanCacheShardIndependence(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, defaultPlanCacheCapacity)
	_, capB, keyA, keyB := distinctShardInstances(t)

	sa, sb := planCache.shardFor(keyA), planCache.shardFor(keyB)
	if sa == sb {
		t.Fatalf("keys with shard indices %d and %d resolved to the same shard object",
			planCache.shardIndex(keyA), planCache.shardIndex(keyB))
	}
	if &sa.mu == &sb.mu {
		t.Fatal("distinct shards share a mutex")
	}

	// Holding shard A's lock must not block shard B's lookups: take A's
	// mutex directly, then complete a full compile on B. This would
	// deadlock (and fail the test timeout) on a single-lock cache; on the
	// striped cache it is pure structure, no timing assertion needed.
	sa.mu.Lock()
	done := make(chan error, 1)
	go func() {
		g, dem := cacheTestInstance(t, capB)
		_, err := CompilePlan(g, dem, Config{})
		done <- err
	}()
	if err := <-done; err != nil {
		sa.mu.Unlock()
		t.Fatal(err)
	}
	sa.mu.Unlock()

	sb.mu.Lock()
	got := sb.misses
	sb.mu.Unlock()
	if got != 1 {
		t.Errorf("shard B misses = %d, want 1 (the compile that ran while shard A's lock was held)", got)
	}
}

// TestPlanCacheShardedHammer drives concurrent hits, misses and evictions
// across many keys and a tiny per-shard capacity, then checks the global
// accounting invariant: every lookup is exactly one of hit, miss or
// dedup, regardless of which shard it landed on. Run under -race this is
// the striped cache's concurrency soak.
func TestPlanCacheShardedHammer(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, 4) // per-shard capacity 1 → constant eviction pressure

	const workers = 8
	const rounds = 12
	const structures = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cap := 1 + (w+r)%structures
				g, dem := cacheTestInstance(t, cap)
				plan, err := CompilePlan(g, dem, Config{})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := plan.Eval(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	pc := PlanCacheSnapshot()
	if total := pc.Hits + pc.Misses + pc.CompileDedup; total != workers*rounds {
		t.Errorf("hits+misses+dedups = %d, want %d lookups", total, workers*rounds)
	}
	if pc.Misses == 0 {
		t.Error("no misses recorded across a cold hammer")
	}
	if pc.Entries > planCacheShards {
		t.Errorf("entries = %d exceeds the per-shard bound × shards = %d", pc.Entries, planCacheShards)
	}
}

// TestPlanCacheLeaderErrorRetryPerShard simulates a failed singleflight
// leader on a specific shard — err set, entry removed, done closed, the
// order the real leader path uses — and checks a waiter retries on that
// same shard: one dedup (the wait on the doomed leader) followed by one
// miss (its own successful compile), with the neighbouring shard's
// counters untouched.
func TestPlanCacheLeaderErrorRetryPerShard(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, defaultPlanCacheCapacity)
	capA, capB, keyA, keyB := distinctShardInstances(t)
	_ = capB

	shard := planCache.shardFor(keyA)
	other := planCache.shardFor(keyB)

	// Install a doomed in-flight compile for keyA, as if a leader with an
	// exhausted budget were mid-flight.
	fl := &inflightCompile{done: make(chan struct{}), err: fmt.Errorf("simulated leader budget exhaustion")}
	shard.mu.Lock()
	shard.inflight[keyA] = fl
	shard.mu.Unlock()

	// The waiter joins the in-flight compile, sees the leader fail, and
	// retries under its own controller.
	done := make(chan error, 1)
	go func() {
		g, dem := cacheTestInstance(t, capA)
		plan, err := CompilePlan(g, dem, Config{})
		if err == nil {
			_, err = plan.Eval(nil)
		}
		done <- err
	}()

	// Wait until the waiter has joined (its acquire bumps the shard's
	// dedup counter), then fail the leader the way planFor does: remove
	// the in-flight entry, then close done.
	for {
		shard.mu.Lock()
		joined := shard.dedups > 0
		if joined {
			delete(shard.inflight, keyA)
		}
		shard.mu.Unlock()
		if joined {
			break
		}
		runtime.Gosched()
	}
	close(fl.done)

	if err := <-done; err != nil {
		t.Fatalf("waiter after leader failure: %v", err)
	}

	shard.mu.Lock()
	dedups, misses, hits := shard.dedups, shard.misses, shard.hits
	shard.mu.Unlock()
	if dedups != 1 || misses != 1 || hits != 0 {
		t.Errorf("failed-leader shard counters hits=%d misses=%d dedups=%d, want 0/1/1", hits, misses, dedups)
	}
	other.mu.Lock()
	otherTotal := other.hits + other.misses + other.dedups
	other.mu.Unlock()
	if otherTotal != 0 {
		t.Errorf("unrelated shard saw %d lookups, want 0", otherTotal)
	}
}

// TestPlanCacheLeaderPanicReleasesKey panics inside a leader's compile,
// once with a waiter already joined and once alone, and checks that the
// panic reaches the leader's caller while the key stays usable: the
// waiter and a later lookup compile the key themselves instead of
// waiting forever on the dead leader.
func TestPlanCacheLeaderPanicReleasesKey(t *testing.T) {
	withPlanCacheShards(t, planCacheShards, defaultPlanCacheCapacity)
	g, dem := cacheTestInstance(t, 2)
	key := planKey(g, dem, Config{})
	shard := planCache.shardFor(key)
	ctl := anytime.New(context.Background(), Budget{})
	lookup := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := planFor(ctl, g, dem, Config{})
			done <- err
		}()
		return done
	}
	wait := func(done <-chan error, who string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", who, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s is still waiting on a leader whose compile panicked", who)
		}
	}

	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = cachedPlan(ctl, g, dem, Config{}, func() (*core.Plan, error) {
			<-release
			panic("compile bug")
		})
	}()
	for {
		shard.mu.Lock()
		_, leading := shard.inflight[key]
		shard.mu.Unlock()
		if leading {
			break
		}
		runtime.Gosched()
	}
	waiter := lookup()
	for {
		shard.mu.Lock()
		joined := shard.dedups > 0
		shard.mu.Unlock()
		if joined {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "compile bug" {
		t.Fatalf("leader recovered %v, want its compile's panic", r)
	}
	wait(waiter, "a waiter joined before the panic")

	ResetPlanCache()
	func() {
		defer func() { _ = recover() }()
		_, _, _ = cachedPlan(ctl, g, dem, Config{}, func() (*core.Plan, error) { panic("compile bug") })
	}()
	wait(lookup(), "a lookup after the panic")
}

// TestStructuralHashMatchesCacheKey pins the exported handle to the
// internal cache key: same structure → same hash regardless of failure
// probabilities, different capacity → different hash.
func TestStructuralHashMatchesCacheKey(t *testing.T) {
	g1, dem := cacheTestInstance(t, 2)
	h1 := StructuralHash(g1, dem, Config{})
	if len(h1) != 64 { // hex-encoded SHA-256
		t.Fatalf("hash length = %d, want 64", len(h1))
	}

	// Same structure, different probabilities: the builder below differs
	// from cacheTestInstance only in PFail values.
	b := NewBuilder()
	s := b.AddNamedNode("s")
	a := b.AddNamedNode("a")
	tt := b.AddNamedNode("t")
	b.AddEdge(s, a, 2, 0.5)
	b.AddEdge(a, tt, 2, 0.5)
	b.AddEdge(s, tt, 1, 0.5)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h2 := StructuralHash(g2, dem, Config{}); h2 != h1 {
		t.Errorf("hash depends on failure probabilities: %s vs %s", h1, h2)
	}

	g3, dem3 := cacheTestInstance(t, 3)
	if h3 := StructuralHash(g3, dem3, Config{}); h3 == h1 {
		t.Error("distinct capacities produced the same structural hash")
	}
}
