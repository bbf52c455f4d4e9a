package ctl

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedpkd/internal/distrib"
)

// drive runs a fake training loop against the gate, recording the rounds it
// crossed, until Barrier returns an error.
func drive(g *Gate, rounds int, crossed *[]int, mu *sync.Mutex, done chan<- error) {
	for t := 0; t < rounds; t++ {
		if err := g.Barrier(t); err != nil {
			done <- err
			return
		}
		mu.Lock()
		*crossed = append(*crossed, t)
		mu.Unlock()
		time.Sleep(time.Millisecond) // a "round"
	}
	g.Finish()
	done <- nil
}

func TestGatePauseResumeQuit(t *testing.T) {
	saves := 0
	g := NewGate(func() (string, error) {
		saves++
		return "ckpt-path", nil
	})
	g.Pause()
	var mu sync.Mutex
	var crossed []int
	done := make(chan error, 1)
	go drive(g, 1000, &crossed, &mu, done)

	// Paused before the first barrier: nothing crosses.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if len(crossed) != 0 {
		mu.Unlock()
		t.Fatalf("crossed %d rounds while paused", len(crossed))
	}
	mu.Unlock()
	if st := g.State(); !st.Paused || !st.AtBarrier {
		t.Fatalf("state = %+v, want paused at barrier", st)
	}

	// A save served while parked at the barrier.
	path, err := g.Save(2 * time.Second)
	if err != nil || path != "ckpt-path" {
		t.Fatalf("save = %q, %v", path, err)
	}
	if saves != 1 {
		t.Fatalf("saveFn ran %d times, want 1", saves)
	}

	g.Resume()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(crossed)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loop did not progress after resume")
		}
		time.Sleep(time.Millisecond)
	}

	g.Quit()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQuit) {
			t.Fatalf("loop ended with %v, want ErrQuit", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("loop did not stop after quit")
	}
}

func TestGateSaveAfterFinish(t *testing.T) {
	g := NewGate(func() (string, error) { return "x", nil })
	g.Finish()
	if _, err := g.Save(time.Second); err == nil {
		t.Fatal("save after finish should fail fast")
	}
}

func TestServerProtocol(t *testing.T) {
	g := NewGate(func() (string, error) { return "/tmp/ck", nil })
	shards := []distrib.ShardHealth{
		{Shard: 0, LastDigestRound: 2, Retries: 1},
		{Shard: 1, LastDigestRound: -1, Retries: 3, Lost: 2},
	}
	status := func() Status {
		return Status{
			Status: distrib.Status{Algo: "fedavg", Round: 3, Registered: 4, Online: 3, Cohort: 3, Shards: shards},
			Rounds: 10,
		}
	}
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	srv, err := Serve(sock, g, status)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := Send(sock, "pause", 2*time.Second)
	if err != nil || !resp.OK {
		t.Fatalf("pause: %+v, %v", resp, err)
	}
	resp, err = Send(sock, "ping", 2*time.Second)
	if err != nil || !resp.OK || resp.Status == nil {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	if !resp.Status.Paused || resp.Status.Algo != "fedavg" || resp.Status.Registered != 4 || resp.Status.Rounds != 10 {
		t.Fatalf("status = %+v, want paused fedavg with 4 registered of 10 rounds", resp.Status)
	}
	if !reflect.DeepEqual(resp.Status.Shards, shards) {
		t.Fatalf("shards = %+v, want %+v", resp.Status.Shards, shards)
	}

	// Save served by a loop reaching the barrier.
	var mu sync.Mutex
	var crossed []int
	done := make(chan error, 1)
	go drive(g, 1000, &crossed, &mu, done)
	resp, err = Send(sock, "save", 5*time.Second)
	if err != nil || !resp.OK || resp.Checkpoint != "/tmp/ck" {
		t.Fatalf("save: %+v, %v", resp, err)
	}

	resp, err = Send(sock, "bogus", 2*time.Second)
	if err != nil || resp.OK {
		t.Fatalf("bogus command must fail: %+v, %v", resp, err)
	}

	resp, err = Send(sock, "quit", 2*time.Second)
	if err != nil || !resp.OK {
		t.Fatalf("quit: %+v, %v", resp, err)
	}
	select {
	case lerr := <-done:
		if !errors.Is(lerr, ErrQuit) {
			t.Fatalf("loop ended with %v, want ErrQuit", lerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("loop did not observe quit")
	}
}

// TestServeReplacesOnlyStaleSockets: Serve clears a unix-socket address only
// of a socket nobody listens on. A regular file there survives and so does a
// live service's socket; in both cases Serve fails.
func TestServeReplacesOnlyStaleSockets(t *testing.T) {
	dir := t.TempDir()
	g := NewGate(nil)
	status := func() Status { return Status{} }

	t.Run("regular file", func(t *testing.T) {
		path := filepath.Join(dir, "results.csv")
		const content = "round,acc\n0,0.5\n"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if srv, err := Serve(path, g, status); err == nil {
			srv.Close()
			t.Fatal("Serve listened over a regular file")
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != content {
			t.Fatalf("the file at the address changed: %q, %v", b, err)
		}
	})

	t.Run("live socket", func(t *testing.T) {
		sock := filepath.Join(dir, "live.sock")
		live, err := Serve(sock, g, status)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		if srv, err := Serve(sock, g, status); err == nil {
			srv.Close()
			t.Fatal("a second service took over a live service's socket")
		}
		if resp, err := Send(sock, "ping", 2*time.Second); err != nil || !resp.OK {
			t.Fatalf("the live service stopped answering: %+v, %v", resp, err)
		}
	})

	t.Run("stale socket", func(t *testing.T) {
		sock := filepath.Join(dir, "stale.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		ln.(*net.UnixListener).SetUnlinkOnClose(false)
		ln.Close() // the socket file stays, as a killed service leaves it
		srv, err := Serve(sock, g, status)
		if err != nil {
			t.Fatalf("Serve refused a stale socket: %v", err)
		}
		defer srv.Close()
		if resp, err := Send(sock, "ping", 2*time.Second); err != nil || !resp.OK {
			t.Fatalf("ping over the replaced socket: %+v, %v", resp, err)
		}
	})
}

// TestSendTimeout pins the per-command deadline: a server that accepts the
// connection but never answers must fail Send within the budget with an
// error matching ErrTimeout, not hang the operator's console.
func TestSendTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := ln.Accept()
		if aerr == nil {
			accepted <- conn // hold the connection open, never respond
		}
	}()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()

	start := time.Now()
	_, err = Send(ln.Addr().String(), "ping", 300*time.Millisecond)
	if err == nil {
		t.Fatal("Send against a mute server succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Send error %v does not match ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Send took %v; the deadline did not bound the command", elapsed)
	}
}

// TestSendDialTimeout pins the dial half of the deadline: an address that
// never completes the handshake must also surface ErrTimeout. A firewalled
// blackhole address is not portable, so this uses a listener with a full
// backlog only as best effort — connection-refused (dead listener) is the
// reliable cross-platform case and must NOT be labeled a timeout.
func TestSendDialTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Send(addr, "ping", 200*time.Millisecond)
	if err == nil {
		t.Fatal("Send against a dead listener succeeded")
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("connection refused mislabeled as ErrTimeout: %v", err)
	}
}

// TestQuitRepliesBeforeTheGateQuits pins the order of a quit: the reply is on
// the wire before the gate reports quitting. The run loop here does what the
// real one's process exit does — the instant Barrier returns ErrQuit it tears
// the command connection down — and the operator must still read OK, every
// time.
func TestQuitRepliesBeforeTheGateQuits(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "ctl.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for i := 0; i < 200; i++ {
		g := NewGate(nil)
		g.Pause() // park the loop at its barrier until quit
		srv := &Server{gate: g, status: func() Status { return Status{} }}
		conns := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			conns <- conn
			srv.serveConn(conn)
		}()
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			conn := <-conns
			if err := g.Barrier(0); errors.Is(err, ErrQuit) && conn != nil {
				conn.Close()
			}
		}()
		resp, err := Send(sock, "quit", 2*time.Second)
		if err != nil || !resp.OK {
			t.Fatalf("quit %d: %+v, %v", i, resp, err)
		}
		<-exited
	}
}
