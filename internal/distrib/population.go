package distrib

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fedpkd/internal/transport"
)

// This file is the strict-mode compatibility path: the one place in the
// package that still builds fixed-size, universe-wide structures. The
// simulator hosts every client endpoint in-process, so the transport fabric
// (one conn per id in [0,n)) is pre-built here even though the *registered*
// population is dynamic — a conn existing is not a client being registered,
// exactly as an open TCP socket is not a row in a production registry.
// Everything outside this file tracks clients through the Registry and
// id-keyed maps.

// ParsePopulation parses a CLI population spec — comma-separated client ids
// like "0,2,5" — into a sorted id list for Options.Population. The empty
// spec returns nil: the whole fleet registers up front (legacy behavior).
// Duplicate or out-of-range ids are an error.
func ParsePopulation(spec string, n int) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	seen := make(map[int]bool)
	out := make([]int, 0, 8)
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("distrib: population id %q: %w", f, err)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("distrib: population id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return nil, fmt.Errorf("distrib: duplicate population id %d", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

// transportParts is a built transport: the server's fan-in conn, one conn
// per client, an optional reconnect hook, and the teardown.
type transportParts struct {
	server  transport.Conn
	clients []transport.Conn
	redial  func(id int) (transport.Conn, error)
	cleanup func()
}

// buildTransport wires one server conn and n client conns. billControl is
// invoked with the wire size of reconnect handshakes so mid-run rejoins are
// accounted as control traffic.
func buildTransport(mode Mode, n int, billControl func(int)) (*transportParts, error) {
	switch mode {
	case ModeBus:
		bus := transport.NewBus(n, n*2)
		conns := make([]transport.Conn, n)
		for c := range conns {
			conns[c] = bus.ClientConn(c)
		}
		return &transportParts{server: bus.ServerConn(), clients: conns, cleanup: bus.Close}, nil
	case ModeTCP:
		srv, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		mux := newMuxConn(n)
		go acceptLoop(srv, mux, n, billControl)
		conns := make([]transport.Conn, n)
		for c := range conns {
			conn, err := dialAndJoin(srv.Addr(), c)
			if err != nil {
				mux.Close()
				srv.Close()
				return nil, err
			}
			conns[c] = conn
		}
		if err := mux.waitRegistered(n, 10*time.Second); err != nil {
			mux.Close()
			srv.Close()
			return nil, err
		}
		addr := srv.Addr()
		cleanup := func() {
			mux.Close()
			for _, c := range conns {
				c.Close()
			}
			srv.Close()
		}
		return &transportParts{
			server:  mux,
			clients: conns,
			redial:  func(id int) (transport.Conn, error) { return dialAndJoin(addr, id) },
			cleanup: cleanup,
		}, nil
	default:
		return nil, fmt.Errorf("distrib: unknown mode %q", mode)
	}
}

// acceptLoop serves attach handshakes for the run's lifetime, not just the
// initial fan-in, so a crash-restarting client can redial mid-run. Each
// accepted conn must open with a hello envelope naming the client id; the
// conn is registered with the mux before the ack is sent, so everything the
// server sends after the client observes the ack lands on the new conn.
//
// Attaching is transport plumbing, not registration: the hello consumed here
// only binds the socket to an id. A client registers with the *service* by
// sending a second hello on the established conn, which the mux pump
// delivers to the server's inbox like any other envelope.
func acceptLoop(srv *transport.Server, mux *muxConn, n int, billControl func(int)) {
	for {
		conn, err := srv.Accept()
		if err != nil {
			return
		}
		go func(conn transport.Conn) {
			hello, err := conn.Recv()
			if err != nil || hello.Kind != transport.KindHello || hello.From < 0 || hello.From >= n {
				conn.Close()
				return
			}
			ack := &transport.Envelope{Kind: transport.KindHello, From: -1, To: hello.From, Round: hello.Round}
			billControl(hello.WireSize() + ack.WireSize())
			mux.register(hello.From, conn)
			// A failed ack means the client is already redialing; the next
			// handshake will replace this registration.
			_ = conn.Send(ack)
		}(conn)
	}
}

// dialAndJoin connects to the server and completes the attach handshake:
// send a hello, wait for the hello ack. Non-hello envelopes arriving before
// the ack are leftovers of the round the client abandoned (the server
// registers the conn before acking), so they are discarded.
func dialAndJoin(addr string, id int) (transport.Conn, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := &transport.Envelope{Kind: transport.KindHello, From: id, To: -1, Round: -1}
	if err := conn.Send(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("distrib: client %d join: %w", id, err)
	}
	for {
		e, err := conn.Recv()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("distrib: client %d await join ack: %w", id, err)
		}
		if e.Kind == transport.KindHello && e.To == id {
			return conn, nil
		}
	}
}
