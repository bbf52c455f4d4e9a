package transport

import (
	"fmt"
	"io"
	"sync"
)

// Bus is an in-memory transport connecting one server endpoint with n client
// endpoints. It mirrors the TCP transport's semantics (ordered delivery,
// EOF after close) without sockets, for tests and fast local runs.
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

func (c *busConn) Send(e *Envelope) error {
	if err := checkPayloadSize(e); err != nil {
		return err
	}
	c.bus.mu.Lock()
	closed := c.bus.closed
	c.bus.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: bus is closed")
	}
	defer func() {
		// A concurrent Close can close the channel mid-send; surface that as
		// an error rather than a crash.
		recover() //nolint:errcheck // intentional: send-on-closed-channel race
	}()
	if c.isServer {
		if e.To < 0 || e.To >= len(c.bus.toClients) {
			return fmt.Errorf("transport: server send to unknown client %d", e.To)
		}
		c.bus.toClients[e.To] <- e
		return nil
	}
	c.bus.toServer <- e
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
