package transport

import (
	"fmt"
	"io"
	"sync"
)

// Bus is an in-memory transport connecting one server endpoint with n client
// endpoints. It mirrors the TCP transport's semantics (ordered delivery,
// EOF after close, Send borrowing its envelope) without sockets, for tests
// and fast local runs.
type Bus struct {
	toServer  chan *Envelope
	toClients []chan *Envelope

	mu     sync.Mutex
	closed bool
}

// NewBus returns a bus for n clients. buffer sets the per-channel capacity;
// 0 gives rendezvous semantics.
func NewBus(n, buffer int) *Bus {
	if n <= 0 {
		panic(fmt.Sprintf("transport: bus needs at least one client, got %d", n))
	}
	toClients := make([]chan *Envelope, n)
	for i := range toClients {
		toClients[i] = make(chan *Envelope, buffer)
	}
	return &Bus{
		toServer:  make(chan *Envelope, buffer*n),
		toClients: toClients,
	}
}

// ServerConn returns the server-side endpoint. Envelopes sent on it must
// address a client in [0, n); envelopes received come from any client.
func (b *Bus) ServerConn() Conn { return &busConn{bus: b, isServer: true} }

// ClientConn returns client id's endpoint.
func (b *Bus) ClientConn(id int) Conn {
	if id < 0 || id >= len(b.toClients) {
		panic(fmt.Sprintf("transport: client id %d out of range", id))
	}
	return &busConn{bus: b, clientID: id}
}

// Close shuts the bus down; pending and future Recvs return io.EOF.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.toServer)
	for _, ch := range b.toClients {
		close(ch)
	}
}

type busConn struct {
	bus      *Bus
	isServer bool
	clientID int
}

var _ Conn = (*busConn)(nil)

// Send delivers a copy of e: the receiver gets an envelope of its own, in a
// free-list buffer, because Send only borrows e — the sender may send the same
// envelope twice or release its buffer the moment Send returns.
func (c *busConn) Send(e *Envelope) (err error) {
	if err := checkPayloadSize(e); err != nil {
		return err
	}
	c.bus.mu.Lock()
	closed := c.bus.closed
	c.bus.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: bus is closed")
	}
	ch := c.bus.toServer
	if c.isServer {
		if e.To < 0 || e.To >= len(c.bus.toClients) {
			return fmt.Errorf("transport: server send to unknown client %d", e.To)
		}
		ch = c.bus.toClients[e.To]
	}
	out := &Envelope{Kind: e.Kind, From: e.From, To: e.To, Round: e.Round}
	out.copyFrom(e.Payload)
	defer func() {
		// A concurrent Close can close the channel mid-send; surface that as
		// an error rather than a crash.
		if recover() != nil {
			out.Release()
			err = fmt.Errorf("transport: bus closed during send")
		}
	}()
	ch <- out
	return nil
}

func (c *busConn) Recv() (*Envelope, error) {
	var ch chan *Envelope
	if c.isServer {
		ch = c.bus.toServer
	} else {
		ch = c.bus.toClients[c.clientID]
	}
	e, ok := <-ch
	if !ok {
		return nil, io.EOF
	}
	return e, nil
}

func (c *busConn) Close() error {
	// Individual endpoints share the bus lifetime; closing an endpoint is a
	// no-op, Close the bus itself to tear everything down.
	return nil
}
