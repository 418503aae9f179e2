package server

// The cluster coordinator: spannerd -coordinator serves the same HTTP
// API as a single worker, but owns no documents itself. Every document
// name hashes onto one worker via the consistent-hash ring
// (internal/cluster); the coordinator routes single-document requests
// to the owner, fans query registrations out to every shard, and
// scatter-gathers /batch and multi-document /stream across the shards
// that own the requested documents. A health prober keeps an up/down
// view of the workers; down shards fail fast with the 502/503/504
// taxonomy instead of dragging the whole fan-out down.

import (
	"errors"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"docspanner/internal/cluster"
)

// CoordinatorConfig tunes a Coordinator. Workers is required; the zero
// value of everything else gets the same defaults a worker Server uses
// where they overlap.
type CoordinatorConfig struct {
	// Workers are the worker base URLs (http://host:port) in a stable
	// order — the order is part of the placement function, so keep it
	// identical across coordinator restarts.
	Workers []string
	// VNodes is the virtual-node count per worker on the hash ring.
	// Default cluster.DefaultVNodes.
	VNodes int
	// ProbeInterval is the health-probe period per worker. Default 500ms.
	ProbeInterval time.Duration
	// RequestTimeout / MaxTimeout mirror the worker Config: the default
	// and cap for the ?timeout= deadline that bounds a whole fan-out.
	RequestTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// MaxPerWorkerInflight bounds concurrent proxied requests per worker
	// (backpressure toward any one shard). Default 32.
	MaxPerWorkerInflight int
	// RetryMax / RetryBase / RetryCap tune idempotent-read retries; see
	// cluster.ClientConfig. Defaults 2 / 25ms / 500ms.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold / BreakerCooldown tune the per-worker circuit
	// breaker. Defaults 5 / 1s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Transport overrides the worker-facing HTTP transport (tests).
	Transport http.RoundTripper
}

// Coordinator is the cluster-mode spannerd HTTP handler. Create one
// with NewCoordinator and mount it on an http.Server; Close stops the
// health prober.
type Coordinator struct {
	ring   *cluster.Ring
	client *cluster.Client
	prober *cluster.Prober
	front  *front

	mergedTuples atomic.Uint64 // tuple frames relayed through merged streams
	shardErrors  atomic.Uint64 // per-shard failures inside scatter-gathers

	closeOnce sync.Once
}

// NewCoordinator builds the ring, client pool, and health prober over
// the configured workers, probes every worker once (so the first
// request already sees a realistic up/down view), and starts the
// background probe loops.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	ring, err := cluster.NewRing(cfg.Workers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ring: ring,
		client: cluster.NewClient(ring, cluster.ClientConfig{
			MaxInflight:      cfg.MaxPerWorkerInflight,
			RetryMax:         cfg.RetryMax,
			RetryBase:        cfg.RetryBase,
			RetryCap:         cfg.RetryCap,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			Transport:        cfg.Transport,
		}),
		prober: cluster.NewProber(ring, cfg.ProbeInterval),
		front:  newFront(coordinatorFront, cfg.RequestTimeout, cfg.MaxTimeout, cfg.MaxBodyBytes, cfg.Logger),
	}
	c.routes()
	c.prober.Start()
	return c, nil
}

// Close stops the health prober. Safe to call multiple times; the
// Coordinator keeps serving afterwards with a frozen up/down view.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { c.prober.Stop() })
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.front.ServeHTTP(w, r) }

// Ring exposes the placement ring (tests and cmd wiring).
func (c *Coordinator) Ring() *cluster.Ring { return c.ring }

func (c *Coordinator) routes() {
	f := c.front
	f.handle("GET /healthz", "healthz", c.handleHealthz)
	f.handle("GET /readyz", "readyz", c.handleReadyz)
	f.handle("GET /metrics", "metrics", c.handleMetrics)
	f.handle("GET /varz", "varz", c.handleVarz)
	f.handle("GET /cluster", "cluster", c.handleCluster)

	f.handle("GET /docs", "docs.list", c.handleDocListFan)
	f.handle("PUT /docs/{name}", "docs.put", c.proxyDocOwner)
	f.handle("GET /docs/{name}", "docs.get", c.proxyDocOwner)
	f.handle("DELETE /docs/{name}", "docs.delete", c.proxyDocOwner)
	f.handle("POST /docs/{name}/compress", "docs.compress", c.proxyDocOwner)
	f.handle("POST /docs/{name}/edit", "docs.edit", c.proxyDocOwner)
	f.handle("POST /docs/{name}/warm", "docs.warm", c.proxyDocOwner)
	f.handle("GET /docs/{name}/views", "views.list", c.proxyDocOwner)
	f.handle("PUT /docs/{name}/views/{query}", "views.put", c.proxyDocOwner)
	f.handle("GET /docs/{name}/views/{query}", "views.get", c.proxyDocOwner)
	f.handle("DELETE /docs/{name}/views/{query}", "views.delete", c.proxyDocOwner)
	f.handle("GET /docs/{name}/changes", "docs.changes", c.proxyDocOwner)
	f.handle("GET /views", "views.list", c.handleViewListFan)

	f.handle("GET /queries", "queries.list", c.proxyFirstUp)
	f.handle("PUT /queries/{name}", "queries.put", c.handleQueryPutFan)
	f.handle("GET /queries/{name}", "queries.get", c.proxyFirstUp)
	f.handle("DELETE /queries/{name}", "queries.delete", c.handleQueryDeleteFan)
	f.handle("GET /queries/{name}/explain", "queries.explain", c.proxyFirstUp)

	f.handle("GET /eval", "eval", c.handleEvalProxy)
	f.handle("GET /count", "count", c.handleCountProxy)
	f.handle("GET /stream", "stream", c.handleStreamProxy)
	f.handle("POST /batch", "batch", c.handleBatchScatter)

	f.handle("POST /admin/flush-caches", "admin.flush", c.handleAdminFan("/admin/flush-caches"))
	f.handle("POST /admin/snapshot", "admin.snapshot", c.handleAdminFan("/admin/snapshot"))
}

// clusterErr maps a worker-client error onto the coordinator's HTTP
// taxonomy: 503 (+Retry-After) for down/breaker-open shards, 504 for a
// deadline spent inside the fan-out, 499 for the client hanging up,
// 502 for a shard that was reachable on paper but failed in transit.
func clusterErr(err error) error {
	if errors.As(err, new(*http.MaxBytesError)) {
		// The client's body outgrew the cap while being forwarded.
		return bodyErr(err)
	}
	st := cluster.StatusFor(err)
	he := &httpError{status: st, message: err.Error()}
	if st == http.StatusServiceUnavailable {
		he.retryAfter = 1
	}
	return he
}

// --- observability ---

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"status":     "ok",
		"role":       "coordinator",
		"uptime":     time.Since(c.front.start).String(),
		"workers":    c.ring.N(),
		"workers_up": c.ring.UpCount(),
	})
	return nil
}

// handleReadyz: a coordinator with zero routable workers cannot serve
// anything — tell the load balancer so.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	up := c.ring.UpCount()
	if up == 0 {
		return errUnavailable("no workers available")
	}
	st := "serving"
	if up < c.ring.N() {
		st = "degraded"
	}
	writeJSON(w, 200, map[string]any{
		"status":     st,
		"workers":    c.ring.N(),
		"workers_up": up,
	})
	return nil
}

// handleCluster exposes the ring: per-worker probe status and breaker
// state, and with ?key=<doc> the placement of one document (CI and
// operators use this to find the shard that owns a name).
func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) error {
	if key := r.URL.Query().Get("key"); key != "" {
		i := c.ring.Owner(key)
		writeJSON(w, 200, map[string]any{
			"key":          key,
			"worker":       c.ring.URL(i),
			"worker_index": i,
			"up":           c.ring.Up(i),
		})
		return nil
	}
	sts := c.prober.Status()
	workers := make([]map[string]any, len(sts))
	for i, st := range sts {
		workers[i] = map[string]any{
			"url":         st.URL,
			"up":          st.Up,
			"error":       st.Err,
			"last_probe":  st.LastProbe,
			"rtt":         st.RTT.String(),
			"docs":        st.Docs,
			"queries":     st.Queries,
			"views":       st.Views,
			"transitions": st.Transitions,
			"breaker":     c.client.Breaker(i).State(),
		}
	}
	writeJSON(w, 200, map[string]any{
		"vnodes":     c.ring.VNodes(),
		"workers":    workers,
		"total":      c.ring.N(),
		"workers_up": c.ring.UpCount(),
	})
	return nil
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.front.writeProm(w)
	c.writeProm(w)
	return nil
}

func (c *Coordinator) handleVarz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"coordinator": c.front.varz(map[string]any{
			"merged_tuples":      c.mergedTuples.Load(),
			"shard_errors":       c.shardErrors.Load(),
			"retries":            c.client.Retries.Load(),
			"breaker_fast_fails": c.client.BreakerFastFails.Load(),
			"down_fast_fails":    c.client.DownFastFails.Load(),
			"vnodes":             c.ring.VNodes(),
			"workers":            c.ring.N(),
			"workers_up":         c.ring.UpCount(),
		}),
		"workers": c.prober.Status(),
	})
	return nil
}
