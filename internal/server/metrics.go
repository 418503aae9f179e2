package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"docspanner/internal/plan"
	"docspanner/internal/slpmatch"
	"docspanner/internal/storage"
)

// latencyBuckets are the histogram upper bounds in seconds (the last
// implicit bucket is +Inf), spanning constant-delay streaming hits
// (tens of µs) through slow materializing evaluations.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters;
// observations and rendering may run concurrently.
type histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1, last is +Inf
	sumNs  atomic.Int64
	count  atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// quantile returns an estimate of the q-quantile in seconds (upper
// bucket bound interpolation; good enough for p50/p99 reporting).
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return latencyBuckets[len(latencyBuckets)-1] * 2
		}
	}
	return latencyBuckets[len(latencyBuckets)-1] * 2
}

// metrics is the worker's own observability state beyond the request
// front: tuple counters, per-query and per-view latency histograms, and
// the process-wide cache statistics it snapshots on render. All methods
// are safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	tuples   map[labelPair]*atomic.Uint64 // (query, kind) -> tuples emitted
	queryLat map[labelPair]*histogram     // (query, kind) -> latency
	viewLat  map[labelPair]*histogram     // (doc, query) -> view refresh latency

	rejected      atomic.Uint64 // requests refused by the concurrency limiter
	viewRefreshes atomic.Uint64 // view refreshes performed (stale skips excluded)
}

// labelPair keys a two-label series: (query, kind) or (doc, query).
type labelPair [2]string

func newMetrics() *metrics {
	return &metrics{
		tuples:   map[labelPair]*atomic.Uint64{},
		queryLat: map[labelPair]*histogram{},
		viewLat:  map[labelPair]*histogram{},
	}
}

func (m *metrics) counter(table map[labelPair]*atomic.Uint64, key labelPair) *atomic.Uint64 {
	m.mu.Lock()
	c, ok := table[key]
	if !ok {
		c = &atomic.Uint64{}
		table[key] = c
	}
	m.mu.Unlock()
	return c
}

func (m *metrics) histogramFor(table map[labelPair]*histogram, key labelPair) *histogram {
	m.mu.Lock()
	h, ok := table[key]
	if !ok {
		h = newHistogram()
		table[key] = h
	}
	m.mu.Unlock()
	return h
}

func (m *metrics) query(name, kind string, tuples int, d time.Duration) {
	m.counter(m.tuples, labelPair{name, kind}).Add(uint64(tuples))
	m.histogramFor(m.queryLat, labelPair{name, kind}).observe(d)
}

func (m *metrics) viewRefresh(doc, query string, d time.Duration) {
	m.viewRefreshes.Add(1)
	m.histogramFor(m.viewLat, labelPair{doc, query}).observe(d)
}

// sortedEntries snapshots a label table under the lock, in label order,
// for deterministic exposition.
func sortedEntries[V any](mu *sync.Mutex, table map[labelPair]V) []labeled[V] {
	mu.Lock()
	out := make([]labeled[V], 0, len(table))
	for k, v := range table {
		out = append(out, labeled[V]{k, v})
	}
	mu.Unlock()
	slices.SortFunc(out, func(a, b labeled[V]) int {
		return cmp.Or(strings.Compare(a.key[0], b.key[0]), strings.Compare(a.key[1], b.key[1]))
	})
	return out
}

type labeled[V any] struct {
	key labelPair
	v   V
}

// writeProm renders the worker's families beyond the front's in the
// Prometheus text exposition format.
func (m *metrics) writeProm(w io.Writer, docs, queries, views int, st storage.Stats, syncFailures uint64) {
	writeScalar(w, family{"spannerd_documents", "Documents in the store."}, "gauge", docs)
	writeScalar(w, family{"spannerd_queries", "Prepared queries in the registry."}, "gauge", queries)
	writeScalar(w, family{"spannerd_views", "Live materialized (doc, query) views."}, "gauge", views)

	m.writeStorageProm(w, st)

	writeScalar(w, family{"spannerd_rejected_total", "Requests refused by the concurrency limiter."}, "counter", m.rejected.Load())
	writeScalar(w, family{"spannerd_storage_sync_failures_total", "Mutations applied and logged whose durability barrier (fsync) failed; the write is visible but its on-disk persistence is uncertain."}, "counter", syncFailures)

	writeFamily(w, family{"spannerd_tuples_total", "Result tuples emitted, by prepared query and request kind."}, "counter")
	for _, e := range sortedEntries(&m.mu, m.tuples) {
		fmt.Fprintf(w, "spannerd_tuples_total{query=%q,kind=%q} %d\n", e.key[0], e.key[1], e.v.Load())
	}

	writeHistograms(w, family{"spannerd_query_duration_seconds",
		"Evaluation latency by prepared query and request kind."},
		&m.mu, m.queryLat, "query=%q,kind=%q")

	writeScalar(w, family{"spannerd_view_refreshes_total", "Incremental view refreshes performed (version-stale skips excluded)."}, "counter", m.viewRefreshes.Load())
	writeHistograms(w, family{"spannerd_view_refresh_duration_seconds",
		"Incremental view refresh latency (WarmDelta + count + materialization) by view."},
		&m.mu, m.viewLat, "doc=%q,query=%q")

	// Edit-aware memo maintenance: process-wide WarmDelta node totals and
	// the resulting reuse ratio — how much of the touched DAGs the
	// incremental warms did NOT have to recompute.
	wr, wu := slpmatch.WarmDeltaStats()
	writeScalar(w, family{"spannerd_warm_recomputed_nodes_total", "SLP nodes recomputed by incremental WarmDelta calls (the edit spines)."}, "counter", wr)
	writeScalar(w, family{"spannerd_warm_reused_nodes_total", "Cached subtree roots WarmDelta pruned at instead of recomputing."}, "counter", wu)
	writeScalar(w, family{"spannerd_warm_memo_reuse_ratio", "Fraction of WarmDelta-visited nodes served from the memo since process start."}, "gauge", rate(wu, wr))

	// Process-wide shared caches: the hash-consed plan cache and the
	// slpmatch per-SLP-node matrix cache.
	ph, pm := plan.CacheStats()
	writeScalar(w, family{"spannerd_plan_cache_hits_total", "Plan-cache hits (process-wide)."}, "counter", ph)
	writeScalar(w, family{"spannerd_plan_cache_misses_total", "Plan-cache misses (process-wide)."}, "counter", pm)
	writeScalar(w, family{"spannerd_plan_cache_hit_rate", "Plan-cache hit rate since process start."}, "gauge", rate(ph, pm))

	mh, mm := slpmatch.CacheStats()
	writeScalar(w, family{"spannerd_matrix_cache_hits_total", "slpmatch per-SLP-node matrix cache hits (process-wide)."}, "counter", mh)
	writeScalar(w, family{"spannerd_matrix_cache_misses_total", "slpmatch per-SLP-node matrix cache misses (process-wide)."}, "counter", mm)
	writeScalar(w, family{"spannerd_matrix_cache_hit_rate", "slpmatch matrix-cache hit rate since process start."}, "gauge", rate(mh, mm))
	writeScalar(w, family{"spannerd_matrix_cache_cores", "Live shared slpmatch cores (one per automaton in use)."}, "gauge", slpmatch.Cores())
}

// writeStorageProm renders the durability backend's counters: WAL
// volume, fsync latency, snapshot freshness, and what the last recovery
// did. All families are emitted for both backends; the memory backend
// reports zeros under backend="memory".
func (m *metrics) writeStorageProm(w io.Writer, st storage.Stats) {
	writeFamily(w, family{"spannerd_storage_info", "The active storage backend (1 = this backend)."}, "gauge")
	fmt.Fprintf(w, "spannerd_storage_info{backend=%q,persistent=%q} 1\n", st.Kind, fmt.Sprint(st.Persistent))

	writeScalar(w, family{"spannerd_wal_records_total", "Mutation records appended to the write-ahead log since open."}, "counter", st.WALRecords)
	writeScalar(w, family{"spannerd_wal_appended_bytes_total", "Bytes appended to the write-ahead log since open."}, "counter", st.WALAppendedBytes)
	writeScalar(w, family{"spannerd_wal_size_bytes", "Size of the live (post-rotation) log file."}, "gauge", st.WALSizeBytes)

	writeScalar(w, family{"spannerd_wal_fsyncs_total", "fsync calls issued by the durability barrier."}, "counter", st.Fsyncs)
	writeScalar(w, family{"spannerd_wal_fsync_seconds_total", "Cumulative time spent in fsync."}, "counter", float64(st.FsyncTotalNanos)/1e9)
	writeScalar(w, family{"spannerd_wal_fsync_max_seconds", "Slowest single fsync since open."}, "gauge", float64(st.FsyncMaxNanos)/1e9)

	writeScalar(w, family{"spannerd_storage_snapshots_total", "Snapshots written since open."}, "counter", st.Snapshots)
	writeScalar(w, family{"spannerd_storage_snapshot_bytes", "Size of the newest snapshot (grammar-sized, not document-sized)."}, "gauge", st.SnapshotBytes)
	age := -1.0
	if st.LastSnapshotUnixNano > 0 {
		age = time.Since(time.Unix(0, st.LastSnapshotUnixNano)).Seconds()
	}
	writeScalar(w, family{"spannerd_storage_snapshot_age_seconds", "Seconds since the newest snapshot (-1 when none exists)."}, "gauge", age)

	writeScalar(w, family{"spannerd_storage_recovered_records", "WAL records replayed on top of the snapshot at the last open."}, "gauge", st.RecoveredRecords)
	tt := 0
	if st.RecoveredTornTail {
		tt = 1
	}
	writeScalar(w, family{"spannerd_storage_recovered_torn_tail", "Whether the last open truncated a torn final record (a crash mid-append)."}, "gauge", tt)
}

// writeProm renders the coordinator's families beyond the front's: the
// cluster aggregates (worker up/down, probe RTT, summed object counts)
// from the prober's cache, so a scrape never fans out, and the fan-out
// health counters.
func (c *Coordinator) writeProm(w io.Writer) {
	sts := c.prober.Status()
	var docs, queries, views int
	up := 0
	for _, st := range sts {
		if st.Up {
			up++
			docs += st.Docs
			queries = max(queries, st.Queries)
			views += st.Views
		}
	}
	writeScalar(w, family{"spannerd_cluster_workers", "Configured workers on the ring."}, "gauge", c.ring.N())
	writeScalar(w, family{"spannerd_cluster_workers_up", "Workers currently passing health probes."}, "gauge", up)
	writeScalar(w, family{"spannerd_cluster_documents", "Documents across up shards (prober-cached)."}, "gauge", docs)
	writeScalar(w, family{"spannerd_cluster_queries", "Prepared queries (every shard holds the full registry; max over up shards)."}, "gauge", queries)
	writeScalar(w, family{"spannerd_cluster_views", "Live views across up shards (prober-cached)."}, "gauge", views)

	writeFamily(w, family{"spannerd_cluster_worker_up", "Per-worker probe verdict (1 = routable)."}, "gauge")
	for _, st := range sts {
		v := 0
		if st.Up {
			v = 1
		}
		fmt.Fprintf(w, "spannerd_cluster_worker_up{worker=%q} %d\n", st.URL, v)
	}
	writeFamily(w, family{"spannerd_cluster_worker_probe_rtt_seconds", "Last health-probe round trip per worker."}, "gauge")
	for _, st := range sts {
		fmt.Fprintf(w, "spannerd_cluster_worker_probe_rtt_seconds{worker=%q} %g\n", st.URL, st.RTT.Seconds())
	}
	writeFamily(w, family{"spannerd_cluster_worker_transitions_total", "Up/down flips per worker since the prober started."}, "counter")
	for _, st := range sts {
		fmt.Fprintf(w, "spannerd_cluster_worker_transitions_total{worker=%q} %d\n", st.URL, st.Transitions)
	}
	writeFamily(w, family{"spannerd_cluster_breaker_open", "Per-worker circuit breaker state (1 = open, refusing requests)."}, "gauge")
	for i := 0; i < c.ring.N(); i++ {
		v := 0
		if c.client.Breaker(i).State() == "open" {
			v = 1
		}
		fmt.Fprintf(w, "spannerd_cluster_breaker_open{worker=%q} %d\n", c.ring.URL(i), v)
	}

	writeScalar(w, family{"spannerd_coordinator_retries_total", "Idempotent reads retried against workers."}, "counter", c.client.Retries.Load())
	writeScalar(w, family{"spannerd_coordinator_breaker_fast_fails_total", "Requests refused by an open per-worker breaker."}, "counter", c.client.BreakerFastFails.Load())
	writeScalar(w, family{"spannerd_coordinator_down_fast_fails_total", "Requests refused because the owning worker is down."}, "counter", c.client.DownFastFails.Load())
	writeScalar(w, family{"spannerd_coordinator_merged_tuples_total", "Tuple frames relayed through merged multi-document streams."}, "counter", c.mergedTuples.Load())
	writeScalar(w, family{"spannerd_coordinator_shard_errors_total", "Per-shard failures inside scatter-gathers (partial results)."}, "counter", c.shardErrors.Load())
}

// writeScalar writes an unlabelled gauge or counter family.
func writeScalar(w io.Writer, f family, typ string, v any) {
	writeFamily(w, f, typ)
	fmt.Fprintf(w, "%s %v\n", f.name, v)
}

// writeFamily writes a family's HELP and TYPE lines.
func writeFamily(w io.Writer, f family, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ)
}

// writeHistograms renders a histogram family keyed by a label pair;
// labels formats the pair (two %q verbs).
func writeHistograms(w io.Writer, f family, mu *sync.Mutex, table map[labelPair]*histogram, labels string) {
	writeFamily(w, f, "histogram")
	for _, e := range sortedEntries(mu, table) {
		writeHistogram(w, f.name, fmt.Sprintf(labels, e.key[0], e.key[1]), e.v)
	}
}

// writeHistogram writes one labelled series of a histogram family.
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, ub, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
}

func rate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "0"
	}
	return fmt.Sprintf("%.4f", float64(hits)/float64(total))
}
