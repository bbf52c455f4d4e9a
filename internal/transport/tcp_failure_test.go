package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// acceptOne dials srv with a raw net.Conn and returns both ends: the raw
// client socket (for byte-level fault injection) and the accepted envelope
// conn the server reads from.
func acceptOne(t *testing.T, srv *Server) (net.Conn, Conn) {
	t.Helper()
	type accepted struct {
		conn Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := srv.Accept()
		ch <- accepted{c, err}
	}()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	return raw, a.conn
}

func TestTCPDialDeadListener(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial against a dead listener should error")
	}
}

func TestTCPPeerClosesMidRound(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, server := acceptOne(t, srv)
	client := NewTCPConn(raw)

	// One good envelope, then the peer vanishes mid-round.
	if err := client.Send(&Envelope{Kind: KindUpload, From: 2, To: -1, Round: 3, Payload: []byte("half a round")}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := server.Recv()
	if err != nil {
		t.Fatalf("first recv: %v", err)
	}
	if e.From != 2 || e.Round != 3 {
		t.Fatalf("envelope mangled: %+v", e)
	}
	if _, err := server.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after peer close = %v, want io.EOF", err)
	}
}

func TestTCPPartialHeaderIsEOF(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, server := acceptOne(t, srv)

	// A connection dying inside the fixed header is indistinguishable from a
	// clean close before the next message: the reader must see plain io.EOF,
	// not a protocol error.
	if _, err := raw.Write([]byte{byte(KindUpload), 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after partial header = %v, want io.EOF", err)
	}
}

func TestTCPPartialPayloadIsError(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, server := acceptOne(t, srv)

	// A full header promising 10 payload bytes followed by only 3 is a torn
	// message, not a clean close: the reader must surface a real error so the
	// caller does not mistake truncation for shutdown.
	header := make([]byte, 17)
	header[0] = byte(KindUpload)
	binary.BigEndian.PutUint32(header[1:5], 1)
	binary.BigEndian.PutUint32(header[5:9], ^uint32(0)) // To: -1
	binary.BigEndian.PutUint32(header[9:13], 0)
	binary.BigEndian.PutUint32(header[13:17], 10)
	if _, err := raw.Write(header); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	_, rerr := server.Recv()
	if rerr == nil || errors.Is(rerr, io.EOF) {
		t.Fatalf("recv after torn payload = %v, want a non-EOF error", rerr)
	}
}

// TestSendRejectsOversizedPayload pins the send-side half of the frame
// limit. A payload over 64 MiB used to be written whole behind a header the
// peer rejects, leaving the stream out of step; now Send refuses it before
// writing a byte, and the next envelope still arrives intact.
func TestSendRejectsOversizedPayload(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, server := acceptOne(t, srv)
	client := NewTCPConn(raw)
	defer client.Close()

	huge := &Envelope{Kind: KindUpload, From: 1, To: -1, Payload: make([]byte, maxPayload+1)}
	if err := client.Send(huge); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("TCP send of %d bytes = %v, want ErrPayloadTooLarge", len(huge.Payload), err)
	}
	if err := client.Send(&Envelope{Kind: KindUpload, From: 1, To: -1, Round: 4, Payload: []byte("next")}); err != nil {
		t.Fatal(err)
	}
	e, err := server.Recv()
	if err != nil {
		t.Fatalf("recv after a refused send: %v", err)
	}
	if e.Round != 4 || string(e.Payload) != "next" {
		t.Fatalf("stream out of step after a refused send: %+v", e)
	}

	bus := NewBus(1, 1)
	defer bus.Close()
	if err := bus.ClientConn(0).Send(huge); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("bus send = %v, want ErrPayloadTooLarge", err)
	}

	// The receive-side half: a length prefix past the limit is the same
	// named error, raised before the payload is allocated.
	raw2, server2 := acceptOne(t, srv)
	defer raw2.Close()
	header := make([]byte, EnvelopeHeaderSize)
	header[0] = byte(KindUpload)
	binary.BigEndian.PutUint32(header[13:17], maxPayload+1)
	if _, err := raw2.Write(header); err != nil {
		t.Fatal(err)
	}
	if _, err := server2.Recv(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("recv of an oversized length prefix = %v, want ErrPayloadTooLarge", err)
	}
}
