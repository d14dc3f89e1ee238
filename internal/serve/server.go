package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Config configures a Server. Zero values select the documented
// defaults; Handler is the only required field.
type Config struct {
	// Handler is the application handler requests are dispatched to.
	Handler http.Handler

	// TenantKey selects how requests are classified into flows:
	// "header:<Name>" reads the named header, "query:<name>" reads the
	// named query parameter. Unclassifiable requests fall into the
	// shared "-" flow. Default "header:X-Tenant".
	TenantKey string

	// Workers is the concurrency limit: at most Workers requests are
	// in their handler at once. Default 16.
	Workers int

	// QueueCap is the per-flow queue capacity in requests; an arrival
	// beyond it is shed with 429. Default 128.
	QueueCap int

	// GlobalBytes is the global queued-memory budget. When an arrival
	// would push the estimated queued bytes past it, the heaviest
	// flow's newest requests are shed to make room — the arriving
	// request itself only when its own flow is the heaviest. Default
	// 32 MiB.
	GlobalBytes int64

	// DebtCap bounds a flow's deferred surplus count in cost units
	// (0 = unbounded). Default 0.
	DebtCap int64

	// DefaultDeadline is applied to requests that carry no
	// X-Request-Deadline-Ms header (0 = no deadline). A header tighter
	// than the default wins; a looser one is clamped to the default.
	DefaultDeadline time.Duration

	// Weight returns a tenant's ERR weight (>= 1); nil means 1 for
	// every tenant.
	Weight func(tenant string) int64

	// CostOf converts a measured handler duration into billed cost
	// units; nil bills whole milliseconds, rounded up, at least 1
	// (costMillis). Tests use this to bill deterministic costs.
	CostOf func(r *http.Request, measured time.Duration) int64

	// Degradation watermarks, as fractions of GlobalBytes occupancy.
	// Tier 1 (shed writes: any method but GET, HEAD and OPTIONS)
	// engages at WriteHigh and releases at WriteLow; tier 2 (health
	// checks, URL path "/healthz", only) engages at FullHigh and
	// releases at FullLow. Releases additionally wait out DegradeDwell
	// to avoid flapping. Defaults: 0.50/0.25, 0.85/0.40, 1s.
	WriteHigh, WriteLow float64
	FullHigh, FullLow   float64
	DegradeDwell        time.Duration

	// Faults optionally injects service-side chaos (slow and stuck
	// handlers) around Handler. Nil injects nothing.
	Faults *fault.ServeInjector

	// Registry receives the serve.* metrics; nil uses obs.Default().
	Registry *obs.Registry

	// now is the test seam for the wall clock; nil means time.Now.
	now func() time.Time
}

func (c *Config) fill() {
	if c.TenantKey == "" {
		c.TenantKey = "header:X-Tenant"
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 128
	}
	if c.GlobalBytes <= 0 {
		c.GlobalBytes = 32 << 20
	}
	if c.CostOf == nil {
		c.CostOf = func(_ *http.Request, d time.Duration) int64 { return costMillis(d) }
	}
	if c.WriteHigh <= 0 {
		c.WriteHigh = 0.50
	}
	if c.WriteLow <= 0 {
		c.WriteLow = 0.25
	}
	if c.FullHigh <= 0 {
		c.FullHigh = 0.85
	}
	if c.FullLow <= 0 {
		c.FullLow = 0.40
	}
	if c.DegradeDwell <= 0 {
		c.DegradeDwell = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// costMillis bills a handler that ran for d in whole milliseconds,
// rounded up, with a minimum of 1, so that even a free request
// consumes one unit of its flow's allowance (a scheduler cost must be
// >= 1). As with a wormhole packet's occupancy, the cost is known only
// once the work completes (see WallERR). Two requests that both finish
// within a millisecond cost the same, and a 5 s handler costs 5000.
func costMillis(d time.Duration) int64 {
	return max(1, int64((d+time.Millisecond-1)/time.Millisecond))
}

// reqState is a queued request's lifecycle state. Transitions out of
// reqWaiting happen exactly once, under the server lock; whoever makes
// the transition owns the queue-accounting decrement.
type reqState int

const (
	reqWaiting  reqState = iota
	reqGranted           // dispatched: the waiter runs the handler
	reqDeadline          // evicted: deadline expired before dispatch -> 504
	reqShed              // evicted: shed by the memory-budget shedder -> 429
	reqDrained           // evicted: server draining -> 503
	reqCanceled          // evicted: client went away before dispatch
)

type request struct {
	flow     int
	tenant   string
	bytes    int64
	enq      time.Time
	deadline time.Time // zero = none
	state    reqState
	token    int64
	// ready is closed by the dispatcher/shedder/drainer when it moves
	// the request out of reqWaiting; the waiter also wakes on its own
	// deadline timer or client cancellation.
	ready chan struct{}
}

// flowQ is one tenant's bounded FIFO of waiting requests plus its
// lifetime accounting. Only requests in reqWaiting live in q.
type flowQ struct {
	id     int
	tenant string
	weight int64

	q    []*request
	head int

	bytes int64 // estimated bytes of waiting requests

	// Lifetime counters (under the server lock). shedQueue and
	// shedBudgetRej count admission refusals (the request never
	// enqueued); shedBudget counts enqueued requests evicted by the
	// budget shedder — the distinction keeps VerifyAccounting's
	// enqueued-vs-settled balance exact.
	enqueued, granted, completed int64
	shedQueue, shedBudget        int64
	shedBudgetRej                int64
	shedDegraded                 int64
	expired, canceled, drained   int64
	costUnits                    int64

	wait  *obs.Histogram // queue wait, ms
	total *obs.Histogram // enqueue -> handler done, ms
}

func (f *flowQ) len() int { return len(f.q) - f.head }

func (f *flowQ) push(r *request) {
	f.q = append(f.q, r)
	f.bytes += r.bytes
}

func (f *flowQ) peek() *request {
	if f.len() == 0 {
		return nil
	}
	return f.q[f.head]
}

func (f *flowQ) pop() *request {
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	f.bytes -= r.bytes
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	} else if f.head > 64 && f.head*2 > len(f.q) {
		n := copy(f.q, f.q[f.head:])
		for i := n; i < len(f.q); i++ {
			f.q[i] = nil
		}
		f.q = f.q[:n]
		f.head = 0
	}
	return r
}

// popTail removes and returns the newest waiting request (the one a
// budget shed discards first: it would complete last anyway).
func (f *flowQ) popTail() *request {
	r := f.q[len(f.q)-1]
	f.q[len(f.q)-1] = nil
	f.q = f.q[:len(f.q)-1]
	f.bytes -= r.bytes
	return r
}

// remove deletes r from anywhere in the queue (a waiter evicting
// itself on deadline expiry sits at an arbitrary position). O(n) in
// the queue length, which the per-flow cap bounds.
func (f *flowQ) remove(r *request) bool {
	for i := f.head; i < len(f.q); i++ {
		if f.q[i] == r {
			copy(f.q[i:], f.q[i+1:])
			f.q[len(f.q)-1] = nil
			f.q = f.q[:len(f.q)-1]
			f.bytes -= r.bytes
			return true
		}
	}
	return false
}

// Server is the fair-queuing front end. Create with New, serve HTTP
// through it (it implements http.Handler), stop with Drain.
type Server struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	tenantKind, tenantName string

	sched    *WallERR
	flows    []*flowQ
	byTenant map[string]int

	freeSlots   int
	queuedBytes int64
	queuedReqs  int
	inflight    int
	draining    bool
	closed      bool

	degrade degradeCtl

	m serveMetrics
}

// New returns a running Server (its dispatcher goroutine is started).
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Handler == nil {
		return nil, fmt.Errorf("serve: Config.Handler is required")
	}
	kind, name, err := parseTenantKey(cfg.TenantKey)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		tenantKind: kind,
		tenantName: name,
		byTenant:   make(map[string]int),
		freeSlots:  cfg.Workers,
	}
	s.cond = sync.NewCond(&s.mu)
	s.sched = NewWallERR(s.flowWeight, cfg.DebtCap)
	s.degrade.init(cfg.WriteHigh, cfg.WriteLow, cfg.FullHigh, cfg.FullLow, cfg.DegradeDwell, cfg.now)
	s.m.init(cfg.Registry)
	go s.dispatch()
	return s, nil
}

func parseTenantKey(spec string) (kind, name string, err error) {
	i := strings.IndexByte(spec, ':')
	if i < 0 {
		return "", "", fmt.Errorf("serve: tenant key %q is not kind:name (header:X-Tenant, query:tenant)", spec)
	}
	kind, name = spec[:i], spec[i+1:]
	switch kind {
	case "header", "query":
	default:
		return "", "", fmt.Errorf("serve: unknown tenant key kind %q (valid: header, query)", kind)
	}
	if name == "" {
		return "", "", fmt.Errorf("serve: tenant key %q has an empty name", spec)
	}
	return kind, name, nil
}

// tenantOf classifies a request into its tenant key.
func (s *Server) tenantOf(r *http.Request) string {
	var t string
	switch s.tenantKind {
	case "header":
		t = r.Header.Get(s.tenantName)
	case "query":
		t = r.URL.Query().Get(s.tenantName)
	}
	if t == "" {
		t = "-"
	}
	return t
}

// flowWeight adapts Config.Weight to flow ids for the scheduler.
// Called under s.mu (the dispatcher serializes scheduler calls).
func (s *Server) flowWeight(flow int) int64 {
	if s.cfg.Weight == nil {
		return 1
	}
	w := s.cfg.Weight(s.flows[flow].tenant)
	if w < 1 {
		w = 1
	}
	return w
}

// flowFor returns the flow for tenant, creating it on first use.
// Caller holds s.mu.
func (s *Server) flowFor(tenant string) *flowQ {
	if id, ok := s.byTenant[tenant]; ok {
		return s.flows[id]
	}
	f := &flowQ{
		id:     len(s.flows),
		tenant: tenant,
		wait:   obs.NewHistogram(obs.HistogramOpts{Width: 1, Buckets: 4096}),
		total:  obs.NewHistogram(obs.HistogramOpts{Width: 1, Buckets: 4096}),
	}
	s.flows = append(s.flows, f)
	s.byTenant[tenant] = f.id
	s.m.flows.Set(int64(len(s.flows)))
	return f
}

// approxBytes estimates the memory a queued request pins: a fixed
// overhead for the request structures plus the declared body length.
func approxBytes(r *http.Request) int64 {
	const overhead = 512
	if r.ContentLength > 0 {
		return overhead + r.ContentLength
	}
	return overhead
}

// effectiveDeadline computes the request's absolute deadline from the
// config default and the X-Request-Deadline-Ms header (tightest wins).
func (s *Server) effectiveDeadline(r *http.Request, now time.Time) time.Time {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Request-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			hd := time.Duration(ms) * time.Millisecond
			if d == 0 || hd < d {
				d = hd
			}
		}
	}
	if d == 0 {
		return time.Time{}
	}
	return now.Add(d)
}

// isWrite reports whether r is shed at tier 1: any method but GET,
// HEAD and OPTIONS.
func isWrite(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	}
	return true
}

func reject(w http.ResponseWriter, code int, reason string) {
	w.Header().Set("X-Shed-Reason", reason)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
}

// ServeHTTP implements http.Handler: classify, admission-check,
// enqueue, wait for a dispatch grant (or eviction), run the handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.now()
	if r.URL.Path == "/healthz" {
		// Health checks bypass the queue: they must answer even when
		// tier 2 sheds everything else — but report draining so a
		// balancer stops sending traffic here.
		if s.isDraining() {
			reject(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	tenant := s.tenantOf(r)

	// Degradation tiers. The fast path reads an atomic; once degraded,
	// every arrival re-evaluates the watermarks under the lock so a
	// quiet (all-shedding) server can still recover after the dwell.
	switch s.tierForAdmission() {
	case tierHealthOnly:
		s.countDegraded(tenant)
		reject(w, http.StatusServiceUnavailable, "degraded")
		return
	case tierShedWrites:
		if isWrite(r) {
			s.countDegraded(tenant)
			reject(w, http.StatusServiceUnavailable, "degraded-writes")
			return
		}
	}

	req := &request{
		tenant:   tenant,
		bytes:    approxBytes(r),
		enq:      now,
		deadline: s.effectiveDeadline(r, now),
		ready:    make(chan struct{}),
	}
	if !req.deadline.IsZero() && !req.deadline.After(now) {
		s.m.expired.Inc()
		reject(w, http.StatusGatewayTimeout, "deadline")
		return
	}

	if !s.enqueue(req, w) {
		return // rejected synchronously; enqueue wrote the response
	}

	// Wait for the dispatcher (or a deadline / client cancellation).
	var timer *time.Timer
	var expireC <-chan time.Time
	if !req.deadline.IsZero() {
		timer = time.NewTimer(req.deadline.Sub(now))
		expireC = timer.C
		defer timer.Stop()
	}
	select {
	case <-req.ready:
	case <-expireC:
		s.selfEvict(req, reqDeadline)
	case <-r.Context().Done():
		s.selfEvict(req, reqCanceled)
	}
	// selfEvict loses the race against a concurrent grant; re-read the
	// final state under the lock.
	s.mu.Lock()
	st := req.state
	s.mu.Unlock()

	switch st {
	case reqGranted:
		s.runGranted(req, w, r)
	case reqDeadline:
		reject(w, http.StatusGatewayTimeout, "deadline")
	case reqShed:
		reject(w, http.StatusTooManyRequests, "memory-budget")
	case reqDrained:
		reject(w, http.StatusServiceUnavailable, "draining")
	case reqCanceled:
		// Client is gone; nothing useful to write.
	default:
		s.m.violation("request resolved in state %d", st)
		reject(w, http.StatusInternalServerError, "internal")
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tierForAdmission returns the degradation tier to admit against,
// re-running the watermark machine when the server is already
// degraded (see ServeHTTP).
func (s *Server) tierForAdmission() int32 {
	t := s.degrade.tierNow()
	if t == tierFull {
		return t
	}
	s.mu.Lock()
	s.degradeLocked()
	t = s.degrade.tierNow()
	s.mu.Unlock()
	return t
}

func (s *Server) countDegraded(tenant string) {
	s.m.shedDegraded.Inc()
	s.mu.Lock()
	s.flowFor(tenant).shedDegraded++
	s.mu.Unlock()
}

// enqueue admits req into its flow's queue, shedding per the per-flow
// cap and the global memory budget. It writes the rejection response
// itself and returns false when the request is not admitted.
func (s *Server) enqueue(req *request, w http.ResponseWriter) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.drainRejected.Inc()
		reject(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	f := s.flowFor(req.tenant)
	req.flow = f.id

	// Per-flow bound: an over-allowance tenant sheds only itself.
	if f.len() >= s.cfg.QueueCap {
		f.shedQueue++
		s.mu.Unlock()
		s.m.shedQueue.Inc()
		reject(w, http.StatusTooManyRequests, "queue-full")
		return false
	}

	// Global memory budget: make room by shedding the heaviest flow's
	// newest requests — never the mice. If the arriving flow is itself
	// the heaviest, it is the one shed.
	if s.queuedBytes+req.bytes > s.cfg.GlobalBytes {
		if !s.shedHeaviestLocked(req.bytes, f) {
			f.shedBudgetRej++
			s.mu.Unlock()
			s.m.shedBudget.Inc()
			reject(w, http.StatusTooManyRequests, "memory-budget")
			return false
		}
	}

	wasEmpty := f.len() == 0
	f.push(req)
	f.enqueued++
	s.queuedBytes += req.bytes
	s.queuedReqs++
	s.m.enqueued.Inc()
	s.m.queued.Set(int64(s.queuedReqs))
	s.m.queuedBytes.Set(s.queuedBytes)
	s.sched.OnArrival(f.id, wasEmpty)
	s.degradeLocked()
	s.checkQuickLocked()
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// shedHeaviestLocked frees at least need bytes by evicting the newest
// waiting requests of the heaviest flow (by queued bytes), repeating
// across flows as needed. It refuses to evict from arriving's own
// flow or from flows lighter than it — the mice are never shed for an
// elephant — and reports whether enough room was freed.
func (s *Server) shedHeaviestLocked(need int64, arriving *flowQ) bool {
	for s.queuedBytes+need > s.cfg.GlobalBytes {
		var heaviest *flowQ
		for _, f := range s.flows {
			if f == arriving || f.len() == 0 {
				continue
			}
			if heaviest == nil || f.bytes > heaviest.bytes {
				heaviest = f
			}
		}
		if heaviest == nil || heaviest.bytes <= arriving.bytes {
			return false
		}
		r := heaviest.popTail()
		r.state = reqShed
		close(r.ready)
		heaviest.shedBudget++
		s.queuedBytes -= r.bytes
		s.queuedReqs--
		s.m.shedBudget.Inc()
		s.sched.OnEvicted(heaviest.id, heaviest.len() == 0)
	}
	return true
}

// selfEvict is the waiter-side transition out of reqWaiting when its
// deadline fires or its client disconnects before dispatch. It loses
// (harmlessly) when the dispatcher granted the request first.
func (s *Server) selfEvict(req *request, to reqState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.state != reqWaiting {
		return
	}
	f := s.flows[req.flow]
	if !f.remove(req) {
		s.m.violation("waiting request missing from its queue (flow %d)", req.flow)
		return
	}
	req.state = to
	s.queuedBytes -= req.bytes
	s.queuedReqs--
	switch to {
	case reqDeadline:
		f.expired++
		s.m.expired.Inc()
	case reqCanceled:
		f.canceled++
		s.m.canceled.Inc()
	}
	s.m.queued.Set(int64(s.queuedReqs))
	s.m.queuedBytes.Set(s.queuedBytes)
	s.sched.OnEvicted(f.id, f.len() == 0)
	s.degradeLocked()
	s.checkQuickLocked()
}

// runGranted runs the application handler for a granted request and
// bills the measured cost back to the flow.
func (s *Server) runGranted(req *request, w http.ResponseWriter, r *http.Request) {
	start := s.cfg.now()
	if d := s.cfg.Faults.Delay(req.tenant); d > 0 {
		time.Sleep(d)
	}
	s.cfg.Handler.ServeHTTP(w, r)
	end := s.cfg.now()

	cost := s.cfg.CostOf(r, end.Sub(start))
	if cost < 1 {
		cost = 1
	}
	s.m.serviceMS.Observe(end.Sub(start).Milliseconds())

	s.mu.Lock()
	f := s.flows[req.flow]
	f.completed++
	f.costUnits += cost
	f.total.Observe(end.Sub(req.enq).Milliseconds())
	s.inflight--
	s.freeSlots++
	s.sched.OnServiceDone(req.flow, req.token, cost)
	s.m.completed.Inc()
	s.m.inflight.Set(int64(s.inflight))
	s.degradeLocked()
	s.checkQuickLocked()
	s.mu.Unlock()
	s.m.totalMS.Observe(end.Sub(req.enq).Milliseconds())
	// Broadcast, not Signal: both the dispatcher (a slot freed) and a
	// Drain caller (in-flight count dropped) may be waiting.
	s.cond.Broadcast()
}
