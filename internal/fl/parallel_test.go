package fl

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersBounds(t *testing.T) {
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) = %d, want 1", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(1 << 20); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(big) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	// The bound is the scheduler's width, not the machine's: capping
	// GOMAXPROCS caps the fan-out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(1 << 20); got != 1 {
		t.Errorf("Workers(big) under GOMAXPROCS=1 = %d, want 1", got)
	}
}

func TestForEachClientRecoversPanic(t *testing.T) {
	var ran atomic.Int64
	err := ForEachClient(16, func(c int) error {
		if c == 7 {
			panic("client exploded")
		}
		ran.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("panicking client should surface as an error")
	}
	if !strings.Contains(err.Error(), "client 7") {
		t.Errorf("error should name the client: %v", err)
	}
	if !strings.Contains(err.Error(), "client exploded") {
		t.Errorf("error should carry the panic value: %v", err)
	}
	// Other clients keep running; the panic must not kill the process or
	// abandon queued work.
	if ran.Load() != 15 {
		t.Errorf("ran %d healthy clients, want 15", ran.Load())
	}
}

func TestForEachClientPanicWithErrorValue(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachClient(3, func(c int) error {
		if c == 0 {
			panic(boom)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic(error) not propagated: %v", err)
	}
}

func TestForEachClientFirstErrorWins(t *testing.T) {
	// Serial execution (1 client at a time is not guaranteed, so force n=1
	// semantics with deterministic single failure) plus a concurrent variant.
	err := ForEachClient(1, func(c int) error { return fmt.Errorf("err-%d", c) })
	if err == nil || err.Error() != "err-0" {
		t.Errorf("single-client error = %v, want err-0", err)
	}

	var failures atomic.Int64
	err = ForEachClient(32, func(c int) error {
		if c%4 == 0 {
			failures.Add(1)
			return fmt.Errorf("client %d failed", c)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.HasPrefix(err.Error(), "client ") || !strings.HasSuffix(err.Error(), " failed") {
		t.Errorf("unexpected error %v", err)
	}
	if failures.Load() != 8 {
		t.Errorf("all clients should still run after the first failure: got %d failures, want 8", failures.Load())
	}
}

func TestForEachClientMixedPanicAndError(t *testing.T) {
	err := ForEachClient(8, func(c int) error {
		switch c {
		case 2:
			panic("kaboom")
		case 5:
			return errors.New("plain failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from panic or failure")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom") && !strings.Contains(msg, "plain failure") {
		t.Errorf("error is neither the panic nor the failure: %v", err)
	}
}
