// Package ctl is the operator control plane of the long-lived FL service: a
// tiny line-oriented command protocol — pause, ping (status), resume, save,
// quit — served over a local socket, in the classic shape of a simulator
// control console. The Gate half synchronizes with the training loop at
// round barriers (where every client worker is parked and the model state is
// quiescent), so pause takes effect between rounds, save produces a
// consistent rolling checkpoint through internal/ckpt, and quit stops the
// run cleanly with ErrQuit. The Server half speaks the wire protocol:
// newline-delimited commands in, one JSON Response line out.
package ctl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// ErrQuit is returned by Gate.Barrier when an operator issued quit: the
// service stops at the barrier it was about to cross. Callers treat it as a
// clean shutdown, not a failure.
var ErrQuit = errors.New("ctl: quit requested")

// ErrTimeout marks a Send whose per-command deadline expired — dialing,
// writing the command, or awaiting the response line took longer than the
// caller's budget. Operators match it with errors.Is to distinguish a hung
// or unreachable service from a protocol failure.
var ErrTimeout = errors.New("ctl: command deadline exceeded")

// wrapTimeout rewrites deadline-shaped transport errors to wrap ErrTimeout,
// preserving the underlying error text.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Gate coordinates the control plane with the training loop. The loop calls
// Barrier at every round boundary; operators flip state through
// Pause/Resume/Quit/Save from other goroutines. All methods are safe for
// concurrent use.
type Gate struct {
	mu        sync.Mutex
	cond      *sync.Cond
	paused    bool
	quitting  bool
	finished  bool
	atBarrier bool
	round     int
	saveFn    func() (string, error)
	saves     []chan saveResult
}

type saveResult struct {
	path string
	err  error
}

// NewGate returns a gate whose save command invokes saveFn at the next
// barrier (typically a closure over the run's checkpoint writer). A nil
// saveFn makes save report an error instead.
func NewGate(saveFn func() (string, error)) *Gate {
	g := &Gate{saveFn: saveFn}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Barrier blocks while the gate is paused, services queued save requests
// (the training loop is parked here, so the checkpoint is consistent), and
// returns ErrQuit once an operator asked the service to stop. The training
// loop calls it with the index of the round about to run.
func (g *Gate) Barrier(round int) error {
	g.mu.Lock()
	g.round = round
	g.atBarrier = true
	defer func() {
		g.atBarrier = false
		g.mu.Unlock()
	}()
	for {
		for len(g.saves) > 0 {
			ch := g.saves[0]
			g.saves = g.saves[1:]
			fn := g.saveFn
			g.mu.Unlock()
			var res saveResult
			if fn == nil {
				res.err = errors.New("ctl: no checkpoint hook configured")
			} else {
				res.path, res.err = fn()
			}
			ch <- res // buffered: a timed-out requester never blocks the barrier
			g.mu.Lock()
		}
		if g.quitting {
			return ErrQuit
		}
		if !g.paused {
			return nil
		}
		g.cond.Wait()
	}
}

// Pause makes the next Barrier park the training loop.
func (g *Gate) Pause() {
	g.mu.Lock()
	g.paused = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Resume releases a paused loop.
func (g *Gate) Resume() {
	g.mu.Lock()
	g.paused = false
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Quit asks the loop to stop at its next barrier (immediately, if it is
// parked there now).
func (g *Gate) Quit() {
	g.mu.Lock()
	g.quitting = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Save requests a checkpoint at the next barrier and waits for its path. A
// paused loop sitting at the barrier serves the request right away; a busy
// loop serves it when the running round completes. Times out if no barrier
// is reached in time (e.g. the run already finished).
func (g *Gate) Save(timeout time.Duration) (string, error) {
	ch := make(chan saveResult, 1)
	g.mu.Lock()
	if g.finished {
		g.mu.Unlock()
		return "", errors.New("ctl: run already finished")
	}
	g.saves = append(g.saves, ch)
	g.mu.Unlock()
	g.cond.Broadcast()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.path, res.err
	case <-timer.C:
		return "", fmt.Errorf("ctl: no round barrier within %v", timeout)
	}
}

// Finish marks the run complete: pending and future saves fail fast instead
// of waiting for a barrier that will never come. The service calls it when
// its round loop returns.
func (g *Gate) Finish() {
	g.mu.Lock()
	g.finished = true
	pending := g.saves
	g.saves = nil
	g.mu.Unlock()
	for _, ch := range pending {
		ch <- saveResult{err: errors.New("ctl: run finished before the save was served")}
	}
	g.cond.Broadcast()
}

// GateState is the gate's half of a status snapshot.
type GateState struct {
	Paused    bool `json:"paused"`
	AtBarrier bool `json:"at_barrier"`
	Finished  bool `json:"finished"`
	Round     int  `json:"round"`
}

// State returns the gate's current state.
func (g *Gate) State() GateState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateState{Paused: g.paused, AtBarrier: g.atBarrier, Finished: g.finished, Round: g.round}
}

// Status is what ping/status reports: the gate state merged with the
// service's population snapshot.
type Status struct {
	Algo       string `json:"algo"`
	Round      int    `json:"round"`
	Rounds     int    `json:"rounds"`
	Paused     bool   `json:"paused"`
	AtBarrier  bool   `json:"at_barrier"`
	Finished   bool   `json:"finished"`
	Registered int    `json:"registered"`
	Online     int    `json:"online"`
	Cohort     int    `json:"cohort"`
	// Shards reports per-leaf aggregator health when the service runs an
	// aggregator tree (omitted for flat runs), so an operator polling status
	// can spot a sick leaf: a stalled last_digest_round, climbing retries, or
	// a growing lost count.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth mirrors the service's per-leaf liveness profile (the ctl
// package cannot import internal/distrib — the dependency runs the other
// way, so the wire type is declared on both sides of the socket).
type ShardHealth struct {
	Shard           int `json:"shard"`
	LastDigestRound int `json:"last_digest_round"`
	Retries         int `json:"retries"`
	Lost            int `json:"lost"`
}

// Response is the single JSON line answering each command.
type Response struct {
	OK         bool    `json:"ok"`
	Err        string  `json:"err,omitempty"`
	Status     *Status `json:"status,omitempty"`
	Checkpoint string  `json:"checkpoint,omitempty"`
}

// Server accepts control connections and dispatches commands to a gate.
type Server struct {
	ln   net.Listener
	gate *Gate
	// status supplies the service half of ping responses; the gate half is
	// filled in by the server.
	status func() Status
	addr   string
	unix   bool
	wg     sync.WaitGroup
}

// saveTimeout bounds how long a save command waits for the next barrier.
const saveTimeout = 30 * time.Second

// Serve starts the control listener. Addresses containing a path separator
// are unix sockets (any stale socket file is replaced); anything else is a
// TCP address like 127.0.0.1:7070.
func Serve(addr string, gate *Gate, status func() Status) (*Server, error) {
	var (
		ln   net.Listener
		err  error
		unix = strings.ContainsRune(addr, '/')
	)
	if unix {
		os.Remove(addr)
		ln, err = net.Listen("unix", addr)
	} else {
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("ctl: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, gate: gate, status: status, addr: addr, unix: unix}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0" TCP listeners).
func (s *Server) Addr() string {
	if s.unix {
		return s.addr
	}
	return s.ln.Addr().String()
}

// Close stops the listener and removes a unix socket file. In-flight
// command connections finish on their own.
func (s *Server) Close() {
	s.ln.Close()
	s.wg.Wait()
	if s.unix {
		os.Remove(s.addr)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		cmd := strings.TrimSpace(strings.ToLower(sc.Text()))
		if cmd == "" {
			continue
		}
		err := enc.Encode(s.dispatch(cmd))
		if cmd == "quit" {
			// Reply first: the run loop may exit the process the instant the
			// gate reports quitting, taking an unwritten reply with it.
			s.gate.Quit()
			return
		}
		if err != nil {
			return
		}
	}
}

func (s *Server) dispatch(cmd string) Response {
	switch cmd {
	case "pause":
		s.gate.Pause()
		return Response{OK: true}
	case "resume":
		s.gate.Resume()
		return Response{OK: true}
	case "ping", "status":
		st := s.status()
		gs := s.gate.State()
		st.Paused = gs.Paused
		st.AtBarrier = gs.AtBarrier
		st.Finished = gs.Finished
		return Response{OK: true, Status: &st}
	case "save":
		path, err := s.gate.Save(saveTimeout)
		if err != nil {
			return Response{OK: false, Err: err.Error()}
		}
		return Response{OK: true, Checkpoint: path}
	case "quit":
		return Response{OK: true} // serveConn quits the gate once this is written
	default:
		return Response{OK: false, Err: fmt.Sprintf("ctl: unknown command %q (want pause, ping, status, resume, save, quit)", cmd)}
	}
}

// Send dials the control socket, issues one command, and returns the parsed
// response — the client half used by `fedpkd-sim -ctl-cmd` and the smoke
// test.
func Send(addr, cmd string, timeout time.Duration) (Response, error) {
	network := "tcp"
	if strings.ContainsRune(addr, '/') {
		network = "unix"
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return Response{}, fmt.Errorf("ctl: dial %s: %w", addr, wrapTimeout(err))
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		return Response{}, fmt.Errorf("ctl: send %q: %w", cmd, wrapTimeout(err))
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Response{}, fmt.Errorf("ctl: read response: %w", wrapTimeout(err))
		}
		return Response{}, errors.New("ctl: connection closed before response")
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("ctl: parse response %q: %w", sc.Text(), err)
	}
	return resp, nil
}
