package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// tcpConn adapts a net.Conn to the envelope protocol. Reads are buffered; a
// send is one vectored write of header and payload. Both directions keep
// their header scratch on the conn, so neither allocates one per envelope.
type tcpConn struct {
	conn net.Conn
	r    *bufio.Reader
	rhdr [EnvelopeHeaderSize]byte // owned by the one goroutine calling Recv

	wmu  sync.Mutex
	whdr [EnvelopeHeaderSize]byte
	wvec [2][]byte   // header, payload: backing array of wbuf
	wbuf net.Buffers // consumed by each send's WriteTo, so rebuilt from wvec
}

var _ Conn = (*tcpConn)(nil)

// NewTCPConn wraps an established net.Conn as an envelope Conn.
func NewTCPConn(conn net.Conn) Conn {
	return &tcpConn{
		conn: conn,
		r:    bufio.NewReader(conn),
	}
}

// Dial connects to a listening peer at addr.
func Dial(addr string) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(conn), nil
}

func (c *tcpConn) Send(e *Envelope) error {
	if err := checkPayloadSize(e); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	putHeader(&c.whdr, e)
	c.wvec = [2][]byte{c.whdr[:], e.Payload}
	c.wbuf = c.wvec[:]
	_, err := c.wbuf.WriteTo(c.conn)
	c.wvec[1] = nil // a failed write must not pin the payload until the next send
	if err != nil {
		return fmt.Errorf("transport: write envelope: %w", err)
	}
	return nil
}

func (c *tcpConn) Recv() (*Envelope, error) {
	return readEnvelope(c.r, &c.rhdr)
}

func (c *tcpConn) Close() error {
	return c.conn.Close()
}

// Server accepts envelope connections on a TCP listener.
type Server struct {
	ln net.Listener
}

// Listen starts an envelope server on addr (use "127.0.0.1:0" for an
// ephemeral test port).
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Server{ln: ln}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accept waits for the next peer connection.
func (s *Server) Accept() (Conn, error) {
	conn, err := s.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewTCPConn(conn), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	return s.ln.Close()
}
