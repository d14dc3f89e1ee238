package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// instantOK is a handler that returns immediately.
var instantOK = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
})

// sleepMS sleeps for the duration named in the ms query parameter.
var sleepMS = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if ms := r.URL.Query().Get("ms"); ms != "" {
		var d int
		fmt.Sscanf(ms, "%d", &d)
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	w.WriteHeader(http.StatusOK)
})

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// do issues one request through the server synchronously.
func do(s *Server, method, target, tenant string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, target, nil)
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// verifyClean asserts the server's accounting audit finds nothing.
func verifyClean(t *testing.T, s *Server) {
	t.Helper()
	if n, msgs := s.VerifyAccounting(); n != 0 {
		t.Fatalf("accounting violations (%d): %v", n, msgs)
	}
}

func TestServeBasic(t *testing.T) {
	s := newTestServer(t, Config{Handler: instantOK, Workers: 2})
	w := do(s, "GET", "/x", "alice", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	st := s.Stats()
	if len(st) != 1 || st[0].Tenant != "alice" || st[0].Completed != 1 {
		t.Fatalf("stats %+v, want one completed request for alice", st)
	}
	verifyClean(t, s)
}

func TestServeTenantClassification(t *testing.T) {
	s := newTestServer(t, Config{Handler: instantOK, TenantKey: "query:team"})
	do(s, "GET", "/x?team=red", "", nil)
	do(s, "GET", "/x?team=blue", "", nil)
	do(s, "GET", "/x", "", nil) // unclassified -> "-"
	st := s.Stats()
	var tenants []string
	for _, ts := range st {
		tenants = append(tenants, ts.Tenant)
	}
	if strings.Join(tenants, ",") != "-,blue,red" {
		t.Fatalf("tenants %v, want [- blue red]", tenants)
	}
	verifyClean(t, s)
}

func TestServeTenantKeyValidation(t *testing.T) {
	for _, bad := range []string{"nope", "cookie:session", "header:"} {
		if _, err := New(Config{Handler: instantOK, TenantKey: bad, Registry: obs.NewRegistry()}); err == nil {
			t.Fatalf("New accepted tenant key %q", bad)
		}
	}
}

func TestServeHealthBypass(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: blocked, Workers: 1})
	defer close(block)

	// Occupy the lone worker so the queue is live, then health-check.
	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })
	w := do(s, "GET", "/healthz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("health status %d, want 200", w.Code)
	}
}

// waitFor polls cond (which must do its own locking) for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if func() bool {
			return cond()
		}() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within 2s")
}

// inflight returns the server's in-flight count under the lock.
func inflight(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

func TestServeQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: blocked, Workers: 1, QueueCap: 2})

	var wg sync.WaitGroup
	var got429 atomic.Int64
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(s, "GET", "/x", "t", nil)
			if w.Code == http.StatusTooManyRequests {
				if reason := w.Header().Get("X-Shed-Reason"); reason != "queue-full" {
					t.Errorf("shed reason %q, want queue-full", reason)
				}
				got429.Add(1)
			}
		}()
	}
	// Occupy the worker first: requests that all reach the queue before
	// the dispatcher takes one would fill it with three, not two.
	send()
	waitFor(t, func() bool { return inflight(s) == 1 })
	// 1 in service + 2 queued; the 4th arrival must shed with 429.
	for i := 0; i < 3; i++ {
		send()
	}
	waitFor(t, func() bool { return got429.Load() >= 1 })
	close(block)
	wg.Wait()
	if got429.Load() != 1 {
		t.Fatalf("%d requests shed, want exactly 1", got429.Load())
	}
	verifyClean(t, s)
}

func TestServeMemoryBudgetShedsHeaviest(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	// Budget fits two 6512-byte elephant requests (13024) plus a bit;
	// the third elephant arrival overflows it, as does a mouse unless
	// the shedder makes room. Degradation watermarks sit above any
	// reachable occupancy so only the budget shedder acts here.
	s := newTestServer(t, Config{
		Handler: blocked, Workers: 1, QueueCap: 100, GlobalBytes: 13500,
		WriteHigh: 5, WriteLow: 4, FullHigh: 6, FullLow: 5,
	})

	// Occupy the worker with a mouse request.
	go do(s, "GET", "/x", "mouse0", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })

	// The elephant queues three requests declaring 6000-byte bodies
	// (6512 each estimated): two fit, the third is refused at admission
	// because the heaviest flow is the elephant itself.
	results := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := httptest.NewRequest("POST", "/fat", strings.NewReader(strings.Repeat("x", 6000)))
			r.Header.Set("X-Tenant", "elephant")
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			results <- w.Code
		}()
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		shed := int64(0)
		if id, ok := s.byTenant["elephant"]; ok {
			shed = s.flows[id].shedBudgetRej
		}
		return shed == 1
	})

	// A mouse arriving now must get in: the shedder evicts the
	// elephant's newest queued request to make room.
	mouseDone := make(chan int, 1)
	go func() {
		mouseDone <- do(s, "GET", "/y", "mouse1", nil).Code
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if id, ok := s.byTenant["mouse1"]; ok {
			return s.flows[id].enqueued == 1
		}
		return false
	})

	close(block)
	wg.Wait()
	if code := <-mouseDone; code != http.StatusOK {
		t.Fatalf("mouse status %d, want 200 (elephant should shed instead)", code)
	}
	shedCodes := 0
	for i := 0; i < 3; i++ {
		if <-results == http.StatusTooManyRequests {
			shedCodes++
		}
	}
	if shedCodes != 2 {
		t.Fatalf("elephant got %d 429s, want 2 (one at admission, one evicted for the mouse)", shedCodes)
	}
	verifyClean(t, s)
}

func TestServeDeadlineExpiresWaiter(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: blocked, Workers: 1})
	defer close(block)

	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })

	start := time.Now()
	w := do(s, "GET", "/x", "t", map[string]string{"X-Request-Deadline-Ms": "30"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", w.Code)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("deadline eviction took %v, want ~30ms", el)
	}
	verifyClean(t, s)
}

func TestServePreExpiredDeadline(t *testing.T) {
	s := newTestServer(t, Config{Handler: instantOK})
	w := do(s, "GET", "/x", "t", map[string]string{"X-Request-Deadline-Ms": "0"})
	// ms=0 is ignored (not a positive deadline) -> served.
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 for ms=0", w.Code)
	}
}

func TestServeDefaultDeadlineTightestWins(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: blocked, Workers: 1, DefaultDeadline: 40 * time.Millisecond})
	defer close(block)

	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })

	// A header looser than the default is clamped to the default.
	start := time.Now()
	w := do(s, "GET", "/x", "t", map[string]string{"X-Request-Deadline-Ms": "60000"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", w.Code)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("default deadline took %v, want ~40ms", el)
	}
}

func TestServeClientCancellation(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: blocked, Workers: 1})
	defer close(block)

	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("GET", "/x", nil).WithContext(ctx)
	r.Header.Set("X-Tenant", "t")
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() { s.ServeHTTP(w, r); close(done) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queuedReqs == 1
	})
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("canceled request did not return")
	}
	st := s.Stats()
	if st[0].Canceled != 1 {
		t.Fatalf("stats %+v, want one cancellation", st)
	}
	verifyClean(t, s)
}

func TestServeDrainCleanAndRejecting(t *testing.T) {
	s := newTestServer(t, Config{Handler: sleepMS, Workers: 1})

	// One request in service (100ms), one queued behind it.
	var inFlightCode, queuedCode atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); inFlightCode.Store(int64(do(s, "GET", "/x?ms=100", "a", nil).Code)) }()
	waitFor(t, func() bool { return inflight(s) == 1 })
	go func() { defer wg.Done(); queuedCode.Store(int64(do(s, "GET", "/x?ms=1", "b", nil).Code)) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queuedReqs == 1
	})

	start := time.Now()
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("clean drain took %v", el)
	}
	wg.Wait()
	if inFlightCode.Load() != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200 (drain waits for it)", inFlightCode.Load())
	}
	if queuedCode.Load() != http.StatusServiceUnavailable {
		t.Fatalf("queued request status %d, want 503 (drain evicts the queue)", queuedCode.Load())
	}

	// Post-drain arrivals and health checks report draining.
	if w := do(s, "GET", "/x", "c", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", w.Code)
	}
	if w := do(s, "GET", "/healthz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain health %d, want 503", w.Code)
	}
	verifyClean(t, s)
}

func TestServeDrainTimeoutReportsStragglers(t *testing.T) {
	block := make(chan struct{})
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	s := newTestServer(t, Config{Handler: stuck, Workers: 1})
	defer close(block)

	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })
	err := s.Drain(50 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "1 requests in flight") {
		t.Fatalf("Drain error %v, want straggler report", err)
	}
}

func TestServeDegradationTiers(t *testing.T) {
	block := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-block })
	// 512-byte estimates against a 4096-byte budget: tier 1 at 50%
	// (3rd queued request), tier 2 at 85% (7th).
	s := newTestServer(t, Config{
		Handler: blocked, Workers: 1, QueueCap: 100, GlobalBytes: 4096,
		DegradeDwell: 30 * time.Millisecond,
	})

	go do(s, "GET", "/x", "t", nil)
	waitFor(t, func() bool { return inflight(s) == 1 })

	// Queue reads until occupancy crosses the tier-1 watermark.
	var wg sync.WaitGroup
	queueN := func(n int, tenant string) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); do(s, "GET", "/r", tenant, nil) }()
		}
	}
	queueN(5, "t") // 5*512/4096 = 62% > 50%
	waitFor(t, func() bool { return s.Tier() == int(tierShedWrites) })

	// Writes shed at tier 1; reads still enqueue.
	if w := do(s, "POST", "/w", "t", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("tier-1 write status %d, want 503", w.Code)
	} else if reason := w.Header().Get("X-Shed-Reason"); reason != "degraded-writes" {
		t.Fatalf("tier-1 shed reason %q, want degraded-writes", reason)
	}

	queueN(3, "t") // 8*512/4096 = 100% > 85%
	waitFor(t, func() bool { return s.Tier() == int(tierHealthOnly) })

	// Reads shed at tier 2; health still answers.
	if w := do(s, "GET", "/r", "t", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("tier-2 read status %d, want 503", w.Code)
	}
	if w := do(s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("tier-2 health status %d, want 200", w.Code)
	}

	// Recovery: unblock, let the queue drain, wait out the dwell; the
	// tier must step back down (one tier at a time) on new arrivals.
	close(block)
	wg.Wait()
	waitFor(t, func() bool {
		do(s, "GET", "/r", "t", nil)
		return s.Tier() == int(tierFull)
	})
	verifyClean(t, s)
}

func TestServeFairnessMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Handler: instantOK, Registry: reg})
	do(s, "GET", "/x", "alice", nil)

	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"serve_enqueued 1",
		"serve_completed 1",
		`serve_tenant_granted{tenant="alice"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestServeWeightedTenants(t *testing.T) {
	// Deterministic fairness: workers=1, costs from the X-Cost header,
	// instant handlers. Tenant "gold" (weight 3) must get ~3x the
	// dispatches of "bronze" (weight 1) while both stay backlogged.
	block := make(chan struct{})
	release := make(chan struct{})
	var order []string
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		mu.Lock()
		order = append(order, r.Header.Get("X-Tenant"))
		mu.Unlock()
	})
	_ = block
	s := newTestServer(t, Config{
		Handler: h, Workers: 1, QueueCap: 100,
		Weight: func(tenant string) int64 {
			if tenant == "gold" {
				return 3
			}
			return 1
		},
		CostOf: func(r *http.Request, _ time.Duration) int64 { return 1 },
	})

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				do(s, "GET", "/x", tn, nil)
			}(tenant)
		}
	}
	// Wait until everything is enqueued or in flight, then open the gate.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queuedReqs+s.inflight == 24
	})
	close(release)
	wg.Wait()

	// While both tenants were backlogged (the first 16 completions),
	// gold must get 3 of every 4 grants.
	mu.Lock()
	window := order[:16]
	mu.Unlock()
	gold := 0
	for _, tn := range window {
		if tn == "gold" {
			gold++
		}
	}
	if gold != 12 {
		t.Fatalf("gold got %d of first 16 grants, want 12 (order %v)", gold, window)
	}
	verifyClean(t, s)
}
