package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pollBound is how long an idle helper keeps polling for the next task
// before it parks. It outlasts the serial phases between two tile
// phases of a saturated 64x64 torus (~0.25 ms), so a helper stepping
// a busy mesh takes each cycle's tasks without being woken.
const pollBound = time.Millisecond

// Pool is a persistent worker pool for fine-grained, repeated fan-out
// — the per-cycle sharded stepping of a mesh, where spawning fresh
// goroutines every cycle (as Run does per call) would dominate the
// work. Do's caller is one of the Workers(); the other Workers()-1
// are helper goroutines started once and living until Close. Each Do
// call publishes its tasks, the caller and the helpers claim them
// from one atomic counter, and Do returns when every task has
// returned.
//
// The hand-off avoids waking a parked goroutine in every call: a
// helper that finishes a task polls for the next one for pollBound
// (yielding with runtime.Gosched) before it parks, and Do wakes a
// parked helper only when there are more tasks than helpers still
// awake. The caller runs the last task itself, then any task no
// helper has claimed, then polls until the tasks in flight finish —
// it never parks. Parked helpers wait on a channel that no polling
// goroutine reads, so a call's tasks go to the helpers already
// polling rather than being handed to a parked one.
//
// Determinism contract: Do imposes no ordering — tasks run
// concurrently in any interleaving — so callers must hand it tasks
// that are data-independent (each task owns everything it writes, as
// with Run's jobs) and must sequence any order-sensitive work
// themselves, after Do returns. The mesh's two-phase stepping is the
// canonical shape: compute tiles in Do, then commit the buffered
// boundary effects serially in fixed tile order.
type Pool struct {
	workers int
	// tasks is the current Do call's task list. Do writes it before
	// publishing avail; a goroutine reads it only after claiming an
	// index, and the call cannot finish — nor the next one overwrite
	// tasks — before that claimed task has returned.
	tasks []func()
	// avail counts the tasks nobody has claimed: a claim takes index
	// avail-1. It goes negative when claims race past zero; the next
	// Do overwrites it.
	avail atomic.Int64
	// left counts the tasks that have not returned.
	left atomic.Int64
	// parked counts the helpers waiting on wake that no token has been
	// sent for yet.
	parked atomic.Int64
	wake   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewPool makes a pool of Workers(workers) workers (workers <= 0
// selects GOMAXPROCS): the caller of Do and Workers()-1 helper
// goroutines. Close it when done; an unclosed pool leaks its helpers.
func NewPool(workers int) *Pool {
	p := &Pool{workers: Workers(workers)}
	// A semaphore: Do sends a token only after taking one helper off
	// parked, so at most one per helper is ever outstanding.
	p.wake = make(chan struct{}, p.workers-1)
	for w := 1; w < p.workers; w++ {
		p.wg.Add(1)
		go p.help()
	}
	return p
}

// Workers returns the number of workers, Do's caller included.
func (p *Pool) Workers() int { return p.workers }

// Do runs every task exactly once and returns when all have returned.
// It allocates nothing. Tasks must be data-independent (see the type
// comment). A task that panics on a helper crashes the program,
// matching the crash-on-bug policy of the simulation hot path; one
// that panics on the caller unwinds through Do, after which the pool
// may only be closed.
func (p *Pool) Do(tasks ...func()) {
	n := int64(len(tasks))
	if n == 0 {
		return
	}
	p.tasks = tasks
	p.left.Store(n)
	p.avail.Store(n - 1)
	p.wakeFor(n - 1)
	tasks[n-1]()
	p.left.Add(-1)
	for p.claim() {
	}
	for p.left.Load() > 0 {
		runtime.Gosched()
	}
	p.tasks = nil
}

// claim runs one unclaimed task of the current Do call, if there is
// one, and reports whether it did.
func (p *Pool) claim() bool {
	if p.avail.Load() <= 0 {
		return false
	}
	i := p.avail.Add(-1)
	if i < 0 {
		return false
	}
	p.tasks[i]()
	p.left.Add(-1)
	return true
}

// wakeFor sends wake tokens to parked helpers until the helpers awake
// number at least n or none is parked.
func (p *Pool) wakeFor(n int64) {
	for {
		k := p.parked.Load()
		if k == 0 || int64(p.workers-1)-k >= n {
			return
		}
		if p.parked.CompareAndSwap(k, k-1) {
			p.wake <- struct{}{}
		}
	}
}

// help is a helper's loop: run unclaimed tasks, poll for pollBound
// after the last one returns, then park until Do or Close wakes it.
// A Do that publishes its tasks just before the helper counts itself
// parked runs them without it: the caller claims every task no helper
// does, so a missed wake costs parallelism for that call, never a task.
func (p *Pool) help() {
	defer p.wg.Done()
	idle := time.Now()
	for !p.closed.Load() {
		if p.claim() {
			idle = time.Now()
			continue
		}
		if time.Since(idle) < pollBound {
			runtime.Gosched()
			continue
		}
		p.parked.Add(1)
		<-p.wake
		idle = time.Now()
	}
}

// Close stops the helpers and waits for them to exit, whether they
// are polling or parked. Close must not race a Do call; a closed pool
// must not be used again.
func (p *Pool) Close() {
	p.closed.Store(true)
	close(p.wake)
	p.wg.Wait()
}
