package fl

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fedpkd/internal/obs"
)

// Workers returns the fan-out width ForEachClient uses for n clients:
// bounded by GOMAXPROCS — what the scheduler runs at once; bodies beyond it
// could only time-slice — and at least 1. Exported
// so instrumentation can report the parallelism a round actually ran with.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEachClient runs fn(c) for every client 0..n-1 concurrently, bounded by
// Workers(n), and waits for all to finish. The first non-nil error
// is returned. A panic in a client body is recovered and reported as an
// error carrying the client index — one crashing client must not take down
// the whole simulation. Each client owns its model and RNG stream, so
// client bodies need no shared-state locking.
func ForEachClient(n int, fn func(c int) error) error {
	workers := Workers(n)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obs.WorkerStarted()
			defer obs.WorkerDone()
			for c := range jobs {
				start := time.Now()
				err := runClient(c, fn)
				obs.AddWorkerBusy(time.Since(start))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for c := 0; c < n; c++ {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// runClient invokes one client body, converting a panic into an error that
// names the client and preserves the stack for debugging.
func runClient(c int, fn func(c int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fl: client %d panicked: %v\n%s", c, r, debug.Stack())
		}
	}()
	return fn(c)
}
