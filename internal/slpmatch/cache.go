package slpmatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"docspanner/internal/slp"
)

// Shared, concurrency-safe per-node caches. Per-SLP-node data (Boolean
// reachability matrices, pure-step vectors, count matrices) depends only
// on the (automaton, node) pair and SLP nodes are immutable, so the memo
// tables live in cores that are hash-consed per automaton: every
// Matcher/Index/Counter over the same automaton shares one core, and a
// database of d documents pays for each shared SLP node once — also
// across goroutines.
//
// The node→value tables are sharded maps under RWMutexes. Lookups of a
// missing node release the lock, compute, and store; concurrent
// computation of the same node is possible but harmless — the computed
// values are equal, and last-write-wins keeps the table consistent.

const cacheShards = 64

// Matrix-cache traffic counters. Each cache counts hits and misses per
// shard on its own cache lines, so the hot lookup path never contends on
// one global counter word across cores; CacheStats folds them together.
// The counter blocks of dropped cores stay registered, keeping the sums
// monotonic for the process lifetime: ResetCaches does not rewind them,
// so servers can export them as Prometheus counters.
type cacheCounters struct {
	shards [cacheShards]struct {
		hits   atomic.Uint64
		misses atomic.Uint64
		_      [48]byte // pad: one cache line per shard's counters
	}
}

var (
	countersMu  sync.Mutex
	allCounters []*cacheCounters
)

func newCacheCounters() *cacheCounters {
	c := &cacheCounters{}
	countersMu.Lock()
	allCounters = append(allCounters, c)
	countersMu.Unlock()
	return c
}

// CacheStats returns the cumulative per-SLP-node matrix-cache hit and
// miss counts, summed over all shared cores (including cores already
// dropped by ResetCaches). Safe to call concurrently with matching,
// warming, and ResetCaches.
func CacheStats() (hits, misses uint64) {
	countersMu.Lock()
	counters := allCounters
	countersMu.Unlock()
	for _, c := range counters {
		for i := range c.shards {
			hits += c.shards[i].hits.Load()
			misses += c.shards[i].misses.Load()
		}
	}
	return hits, misses
}

// Cores returns the number of live shared cores (one per automaton with
// at least one Matcher/Index/Counter built since the last ResetCaches).
func Cores() int {
	n := 0
	for _, reg := range []*sync.Map{&matcherCores, &indexCores, &counterCores} {
		reg.Range(func(_, _ any) bool { n++; return true })
	}
	return n
}

// nodeCache is a sharded concurrent map from SLP nodes to per-node data.
type nodeCache[V any] struct {
	shards [cacheShards]struct {
		mu sync.RWMutex
		m  map[*slp.Node]V
	}
	stats *cacheCounters
}

func newNodeCache[V any]() *nodeCache[V] {
	c := &nodeCache[V]{stats: newCacheCounters()}
	for i := range c.shards {
		c.shards[i].m = make(map[*slp.Node]V)
	}
	return c
}

// shardOf hashes the node pointer. Heap pointers share alignment in the
// low bits and arena locality in the high bits; xoring a shifted copy
// spreads both across the shard index.
func shardOf(n *slp.Node) int {
	p := uintptr(unsafe.Pointer(n))
	return int((p>>4)^(p>>13)) & (cacheShards - 1)
}

func (c *nodeCache[V]) get(n *slp.Node) (V, bool) {
	i := shardOf(n)
	s := &c.shards[i]
	s.mu.RLock()
	v, ok := s.m[n]
	s.mu.RUnlock()
	if ok {
		c.stats.shards[i].hits.Add(1)
	} else {
		c.stats.shards[i].misses.Add(1)
	}
	return v, ok
}

func (c *nodeCache[V]) put(n *slp.Node, v V) {
	s := &c.shards[shardOf(n)]
	s.mu.Lock()
	s.m[n] = v
	s.mu.Unlock()
}

// del drops n's entry, if any.
func (c *nodeCache[V]) del(n *slp.Node) {
	s := &c.shards[shardOf(n)]
	s.mu.Lock()
	delete(s.m, n)
	s.mu.Unlock()
}

func (c *nodeCache[V]) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}

// WarmStats reports what one WarmDelta call did: how many inner SLP
// nodes had their per-node data computed now (the edit spine — O(log d)
// per CDE operation on balanced SLPs), how many distinct already-warm
// subtree roots the pruned traversal stopped at (each standing for a
// whole reused subtree), and how many inner nodes the core had cached
// before the call (the data kept valid across the edit).
type WarmStats struct {
	// Recomputed counts inner nodes whose data was computed by this call.
	Recomputed int
	// Reused counts the distinct cached nodes the traversal pruned at:
	// the roots of the subtrees shared with previous versions. The DAG
	// below them was never visited — that is the incrementality.
	Reused int
	// CachedBefore is the number of inner nodes the shared core had data
	// for when the call started (across all documents of the automaton).
	CachedBefore int
}

// Add accumulates other into st (for summing index + counter stats).
func (st *WarmStats) Add(other WarmStats) {
	st.Recomputed += other.Recomputed
	st.Reused += other.Reused
	st.CachedBefore += other.CachedBefore
}

// Process-wide WarmDelta totals (monotonic, survive ResetCaches) so
// servers can export edit-maintenance work as Prometheus counters.
var (
	warmRecomputedTotal atomic.Uint64
	warmReusedTotal     atomic.Uint64
)

// WarmDeltaStats returns the cumulative nodes-recomputed and
// nodes-reused counts over every WarmDelta call in the process, across
// all cores (including cores since dropped by ResetCaches).
func WarmDeltaStats() (recomputed, reused uint64) {
	return warmRecomputedTotal.Load(), warmReusedTotal.Load()
}

// warmDelta computes per-node data for the inner nodes of newRoot that
// are not yet cached, pruning the traversal at cached nodes: after a CDE
// edit of a warmed document only the O(log d) fresh spine nodes are
// uncached, so the walk touches the spine plus its cached boundary and
// nothing below it. ensure warms a baseline root first (a single cache
// hit when oldRoot is already warm; a full warm otherwise, so WarmDelta
// is correct — merely not incremental — on a cold core). compute must
// derive n's data from its children's (computing them on demand) and
// store it; a stored node is never recomputed.
//
// oldRoot is superseded by newRoot: after the warm, a second walk from
// oldRoot stops at every node the first walk visited and drops every
// other inner node it reaches. A node only oldRoot reaches is reached
// that way, since no path to it passes through a node of newRoot, so
// the memo of a version replaced under a live view does not outlive it.
// Nodes that newRoot still reaches below a pruned subtree, through
// sharing inside the grammar (Re-Pair rules, copies), can be dropped
// too. Every memo is a function of its node alone, so a dropped entry
// costs a recomputation on the next evaluation that needs it, never a
// wrong answer — also for an evaluation of oldRoot running concurrently.
//
// The spine is processed sequentially: it is O(ord) nodes, far below the
// level-parallel threshold that pays off in warmParallel.
func warmDelta(oldRoot, newRoot *slp.Node, cached func(*slp.Node) bool, ensure, compute func(*slp.Node), drop func(*slp.Node)) WarmStats {
	var st WarmStats
	if newRoot == nil {
		return st
	}
	if oldRoot != nil {
		ensure(oldRoot)
	}
	seen := map[*slp.Node]bool{}
	var visit func(n *slp.Node)
	visit = func(n *slp.Node) {
		if n == nil || n.IsLeaf() || seen[n] {
			return
		}
		seen[n] = true
		if cached(n) {
			st.Reused++
			return
		}
		visit(n.Left())
		visit(n.Right())
		compute(n)
		st.Recomputed++
	}
	visit(newRoot)
	var evict func(n *slp.Node)
	evict = func(n *slp.Node) {
		if n == nil || n.IsLeaf() || seen[n] {
			return
		}
		seen[n] = true
		drop(n)
		evict(n.Left())
		evict(n.Right())
	}
	evict(oldRoot)
	warmRecomputedTotal.Add(uint64(st.Recomputed))
	warmReusedTotal.Add(uint64(st.Reused))
	return st
}

// Core registries: one core per automaton instance, shared by every
// Matcher/Index/Counter built on it. The automaton must not be mutated
// after its first use here.
var (
	matcherCores sync.Map // *automata.NFA  → *matcherCore
	indexCores   sync.Map // *automata.DEVA → *indexCore
	counterCores sync.Map // *automata.DEVA → *counterCore
)

// ResetCaches drops every shared core and its node tables (frees memory
// in long-lived processes that discard automata or documents; also the
// cache-flush admin operation of servers, and used by tests that measure
// cache growth from a cold start).
//
// ResetCaches is safe to call at any time, including while Matchers,
// Indexes, and Counters are in use on other goroutines. The reset only
// unlinks the cores from the registries: an instance created before the
// reset keeps the core it was built with (self-contained and still
// consistent, so in-flight and future operations on it stay correct,
// warming into a table that is no longer shared), while instances
// created afterwards start from fresh, empty cores. Two instances over
// the same automaton that straddle a reset therefore no longer share
// matrices — correctness is unaffected, only the amortization.
func ResetCaches() {
	matcherCores.Range(func(k, _ any) bool { matcherCores.Delete(k); return true })
	indexCores.Range(func(k, _ any) bool { indexCores.Delete(k); return true })
	counterCores.Range(func(k, _ any) bool { counterCores.Delete(k); return true })
}

// collectByOrder gathers the distinct unseen inner nodes of root's DAG,
// grouped by Order. Order(n) = 1 + max(order of children), so all nodes
// of one order are pairwise independent: level-by-level processing gives
// a race-free parallel bottom-up schedule.
func collectByOrder(root *slp.Node, cached func(*slp.Node) bool) [][]*slp.Node {
	var levels [][]*slp.Node
	seen := map[*slp.Node]bool{}
	var visit func(n *slp.Node)
	visit = func(n *slp.Node) {
		if n == nil || n.IsLeaf() || seen[n] || cached(n) {
			return
		}
		seen[n] = true
		visit(n.Left())
		visit(n.Right())
		o := int(n.Order())
		for len(levels) <= o {
			levels = append(levels, nil)
		}
		levels[o] = append(levels[o], n)
	}
	visit(root)
	return levels
}

// warmParallel computes per-node data for all uncached inner nodes of
// root bottom-up, fanning each order-level out over workers. compute
// must derive n's data from its children's (already cached) data and
// store it.
func warmParallel(root *slp.Node, workers int, cached func(*slp.Node) bool, compute func(*slp.Node)) {
	levels := collectByOrder(root, cached)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, level := range levels {
		if len(level) == 0 {
			continue
		}
		if workers == 1 || len(level) == 1 {
			for _, n := range level {
				compute(n)
			}
			continue
		}
		var wg sync.WaitGroup
		ch := make(chan *slp.Node, len(level))
		for _, n := range level {
			ch <- n
		}
		close(ch)
		w := workers
		if w > len(level) {
			w = len(level)
		}
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for n := range ch {
					compute(n)
				}
			}()
		}
		wg.Wait()
	}
}
