package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrWorkerDown reports a request aimed at a worker the health prober
// currently considers down. Maps to 503 at the coordinator: the worker
// may come back, the client should retry later.
var ErrWorkerDown = errors.New("cluster: worker is down")

// ErrBreakerOpen reports a request refused by an open circuit breaker
// — the worker failed repeatedly and the cooldown has not elapsed.
// Maps to 503 like ErrWorkerDown.
var ErrBreakerOpen = errors.New("cluster: worker circuit breaker open")

// ClientConfig tunes the coordinator's worker client pool. The zero
// value gets sensible defaults.
type ClientConfig struct {
	// MaxInflight bounds concurrent requests per worker (the
	// coordinator-side analogue of the worker's own concurrency limiter);
	// excess requests wait for a slot until their context expires.
	// Default 32.
	MaxInflight int
	// RetryMax is how many times an idempotent request is retried after
	// its first attempt. Default 2.
	RetryMax int
	// RetryBase is the first backoff step; attempt k waits
	// base·2^k + jitter, capped at RetryCap. Defaults 25ms / 500ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold / BreakerCooldown tune the per-worker circuit
	// breaker (see Breaker). Defaults 5 / 1s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the HTTP transport (tests inject failures).
	Transport http.RoundTripper
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 500 * time.Millisecond
	}
	return c
}

// Client is the coordinator's connection pool onto the workers: one
// shared HTTP transport, a per-worker in-flight semaphore, and a
// per-worker circuit breaker. Safe for concurrent use.
type Client struct {
	ring *Ring
	cfg  ClientConfig
	hc   *http.Client
	sem  []chan struct{}
	brk  []*Breaker

	// Counters for /metrics.
	Retries          atomic.Uint64 // idempotent retries performed
	BreakerFastFails atomic.Uint64 // requests refused by an open breaker
	DownFastFails    atomic.Uint64 // requests refused because the worker is down
}

// NewClient builds the pool over the ring's workers.
func NewClient(ring *Ring, cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConns:        ring.N() * cfg.MaxInflight,
			MaxIdleConnsPerHost: cfg.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Client{
		ring: ring,
		cfg:  cfg,
		hc:   &http.Client{Transport: tr},
		sem:  make([]chan struct{}, ring.N()),
		brk:  make([]*Breaker, ring.N()),
	}
	for i := range c.sem {
		c.sem[i] = make(chan struct{}, cfg.MaxInflight)
		c.brk[i] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	return c
}

// Breaker exposes worker i's breaker for observability.
func (c *Client) Breaker(i int) *Breaker { return c.brk[i] }

// Ring returns the ring the client routes over.
func (c *Client) Ring() *Ring { return c.ring }

// Do sends one request to worker i, enforcing the up/down ring, the
// circuit breaker, and the per-worker in-flight bound. The request must
// already carry the caller's context. On success the returned release
// func MUST be called once the response body is no longer needed — it
// frees the worker's in-flight slot (held for the whole body lifetime
// so a slow stream counts against the worker's fan-out budget).
//
// Transport errors count against the breaker; any HTTP response —
// including 5xx — counts as the worker being alive (its own limiter and
// deadline taxonomy speak for themselves and are handled by the retry
// layer, not the liveness layer).
func (c *Client) Do(req *http.Request, worker int) (*http.Response, func(), error) {
	if !c.ring.Up(worker) {
		c.DownFastFails.Add(1)
		return nil, nil, fmt.Errorf("%w: %s", ErrWorkerDown, c.ring.URL(worker))
	}
	b := c.brk[worker]
	if !b.Allow() {
		c.BreakerFastFails.Add(1)
		return nil, nil, fmt.Errorf("%w: %s", ErrBreakerOpen, c.ring.URL(worker))
	}
	ctx := req.Context()
	select {
	case c.sem[worker] <- struct{}{}:
	case <-ctx.Done():
		// The slot never freed up; the probe neither succeeded nor failed
		// from the worker's point of view, so the breaker must not stay
		// wedged in "probing".
		b.Cancel()
		return nil, nil, ctx.Err()
	}
	var released atomic.Bool
	release := func() {
		if released.CompareAndSwap(false, true) {
			<-c.sem[worker]
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		release()
		// A cancelled/expired context is the caller's deadline, not worker
		// ill health.
		if ctx.Err() != nil {
			b.Cancel()
			return nil, nil, ctx.Err()
		}
		// Neither is a request body the caller could not supply (say, one
		// cut off at the caller's own size cap).
		if errors.As(err, new(*http.MaxBytesError)) {
			b.Cancel()
			return nil, nil, fmt.Errorf("worker %s: %w", c.ring.URL(worker), err)
		}
		b.Failure()
		return nil, nil, fmt.Errorf("worker %s: %w", c.ring.URL(worker), err)
	}
	b.Success()
	return resp, release, nil
}

// GetIdempotent sends a GET (or other side-effect-free request built by
// mkReq, fresh per attempt) to worker i with retries: transport errors
// back off exponentially with jitter; a 503 honors the worker's
// Retry-After header before the next attempt. Down-worker and
// open-breaker refusals are not retried — there is no replica to fail
// over to, and the prober/breaker decide when the worker is worth
// trying again.
func (c *Client) GetIdempotent(ctx context.Context, worker int, mkReq func(ctx context.Context) (*http.Request, error)) (*http.Response, func(), error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := mkReq(ctx)
		if err != nil {
			return nil, nil, err
		}
		resp, release, err := c.Do(req, worker)
		if err != nil {
			if errors.Is(err, ErrWorkerDown) || errors.Is(err, ErrBreakerOpen) || ctx.Err() != nil {
				return nil, nil, err
			}
			lastErr = err
			if attempt >= c.cfg.RetryMax {
				return nil, nil, lastErr
			}
			if err := c.sleep(ctx, c.backoff(attempt, 0)); err != nil {
				return nil, nil, lastErr
			}
			c.Retries.Add(1)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < c.cfg.RetryMax {
			ra := retryAfter(resp)
			// Drain so the connection is reusable, then give the slot back
			// before sleeping.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			_ = resp.Body.Close()
			release()
			if err := c.sleep(ctx, c.backoff(attempt, ra)); err != nil {
				return nil, nil, fmt.Errorf("worker %s: 503 and retry budget exhausted by deadline", c.ring.URL(worker))
			}
			c.Retries.Add(1)
			continue
		}
		return resp, release, nil
	}
}

// backoff computes attempt k's wait: base·2^k plus up to one base of
// jitter, capped — but never less than the worker's own Retry-After
// hint (still capped, so a hostile header cannot park the coordinator).
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	d += time.Duration(rand.Int64N(int64(c.cfg.RetryBase) + 1))
	if d < hint {
		d = hint
	}
	if d > c.cfg.RetryCap {
		d = c.cfg.RetryCap
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a delay-seconds Retry-After header (the only form
// spannerd emits); absent or unparsable yields 0.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// StatusFor maps a client error onto the coordinator's HTTP taxonomy:
// 503 for down/breaker-open workers (retryable outage), 504 for a
// deadline that expired inside the fan-out, 502 for a worker that was
// reachable on paper but failed at the transport level.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrWorkerDown), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadGateway
	}
}
