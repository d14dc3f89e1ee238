package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		out := make([]int, 64)
		tasks := make([]func(), len(out))
		for i := range tasks {
			i := i
			tasks[i] = func() { out[i] = i + 1 }
		}
		p.Do(tasks...)
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i+1)
			}
		}
		p.Close()
	}
}

func TestPoolReuseAcrossRounds(t *testing.T) {
	// The mesh calls Do once per simulated cycle; the pool must stay
	// healthy across many small rounds without spawning goroutines.
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 2000; round++ {
		p.Do(
			func() { total.Add(1) },
			func() { total.Add(1) },
			func() { total.Add(1) },
		)
	}
	if got := total.Load(); got != 6000 {
		t.Fatalf("ran %d tasks, want 6000", got)
	}
}

func TestPoolDoEmptyAndSingle(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Do() // no tasks: must not hang
	ran := false
	p.Do(func() { ran = true })
	if !ran {
		t.Fatal("single task did not run")
	}
}

func TestPoolWorkersNormalized(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	p2 := NewPool(3)
	defer p2.Close()
	if p2.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p2.Workers())
	}
}

// checkDo runs one Do over n tasks on p and checks its contract: every
// task ran exactly once, and every task had returned when Do did. Each
// task writes only its own slot with a plain store, so under -race a
// Do that returned before a task finished is also reported as a race
// on that slot.
func checkDo(t *testing.T, p *Pool, n int) {
	t.Helper()
	runs := make([]int, n)
	tasks := make([]func(), n)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			// A few microseconds of work, so tasks overlap and the
			// last to return is rarely the first to start.
			deadline := time.Now().Add(time.Duration(i%4) * 5 * time.Microsecond)
			for time.Now().Before(deadline) {
			}
			runs[i]++
		}
	}
	p.Do(tasks...)
	for i, r := range runs {
		if r != 1 {
			t.Fatalf("workers=%d tasks=%d: task %d ran %d times by the time Do returned, want 1", p.Workers(), n, i, r)
		}
	}
}

// waitParked waits until every helper of p has parked.
func waitParked(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.parked.Load() != int64(p.Workers()-1) {
		if time.Now().After(deadline) {
			t.Fatalf("workers=%d: %d of %d helpers parked after 10 s", p.Workers(), p.parked.Load(), p.Workers()-1)
		}
		time.Sleep(pollBound)
	}
}

// TestPoolContract checks Do's contract at GOMAXPROCS 1 and 2, with
// fewer tasks than workers and more, back to back while the helpers
// poll and again after they have parked.
func TestPoolContract(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, workers := range []int{1, 2, 4} {
				p := NewPool(workers)
				for _, n := range []int{1, workers - 1, workers, workers + 1, 4 * workers, 64} {
					if n < 1 {
						continue
					}
					for round := 0; round < 200; round++ {
						checkDo(t, p, n)
					}
					waitParked(t, p)
					checkDo(t, p, n)
					checkDo(t, p, n)
				}
				p.Close()
			}
		})
	}
}

// TestPoolDoAllocsZero pins that Do allocates nothing, whether the
// helpers are polling or parked: the mesh calls it once per cycle on
// a path that must run allocation-free.
func TestPoolDoAllocsZero(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var hits [3]int
	tasks := []func(){
		func() { hits[0]++ },
		func() { hits[1]++ },
		func() { hits[2]++ },
	}
	if got := testing.AllocsPerRun(200, func() { p.Do(tasks...) }); got != 0 {
		t.Errorf("Do allocates %.1f times with polling helpers, want 0", got)
	}
	if got := testing.AllocsPerRun(5, func() {
		waitParked(t, p)
		p.Do(tasks...)
	}); got != 0 {
		t.Errorf("Do allocates %.1f times with parked helpers, want 0", got)
	}
}

// TestPoolClose checks that Close returns, and its helpers exit,
// while they poll right after a Do and after they have parked.
func TestPoolClose(t *testing.T) {
	for _, parked := range []bool{false, true} {
		p := NewPool(4)
		checkDo(t, p, 8)
		if parked {
			waitParked(t, p)
		}
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("parked=%v: Close did not return within 10 s", parked)
		}
	}
}
