package transport_test

import (
	"bytes"
	"runtime"
	"testing"

	"fedpkd/internal/faults"
	"fedpkd/internal/transport"
)

// TestSendBorrowsPayload holds every transport to Send's contract: Send
// borrows the envelope only for the call. The sender's conn duplicates every
// send (a faults.Conn sends the same *Envelope twice), and the sender
// scribbles over its payload and releases it as soon as Send returns; both
// deliveries must still carry the original bytes. The bus passes envelopes
// by pointer, so it must copy; TCP copies into the socket.
func TestSendBorrowsPayload(t *testing.T) {
	params := make([]float64, 512)
	for i := range params {
		params[i] = 1 / float64(i+3)
	}
	msg := transport.RoundUpload{Round: 4, Client: 0, HasPayload: true, Payload: transport.WirePayload{Params: params, NumSamples: 5}}
	want, err := transport.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (client, server transport.Conn)
	}{
		{"bus", func(t *testing.T) (transport.Conn, transport.Conn) {
			bus := transport.NewBus(1, 2)
			t.Cleanup(bus.Close)
			return bus.ClientConn(0), bus.ServerConn()
		}},
		{"tcp", loopbackPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := tc.pair(t)
			var st faults.Stats
			dup := faults.Wrap(client, &faults.Plan{Seed: 1, DupProb: 1}, 0, &st, faults.OSClock)

			e := &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: 4}
			if err := e.Encode(msg); err != nil {
				t.Fatal(err)
			}
			if err := dup.Send(e); err != nil {
				t.Fatal(err)
			}
			for i := range e.Payload {
				e.Payload[i] = 0xAA
			}
			e.Release()
			if n := st.Snapshot().Dups; n != 1 {
				t.Fatalf("the plan duplicated %d sends, want 1", n)
			}

			for i := 0; i < 2; i++ {
				in, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(in.Payload, want) {
					t.Errorf("delivery %d does not carry the bytes sent: the transport kept the sender's buffer", i+1)
				}
				in.Release()
			}
		})
	}
}

// TestTCPUploadRoundTripAllocs is the allocation gate on the wire's byte
// path, with no clock in it. A trip is one FedAvg-sized float64raw upload
// (17 000 params, the size wire_tcp_flat's model sends) encoded into an
// envelope, sent over loopback TCP, received, decoded and released on both
// ends, the decoded params vector included. Without the free lists a trip
// allocates three payloads — the encoded frame, the read buffer and the
// decoded vector; with them a steady-state trip reuses all three, so it must
// stay under 0.1 payloads. A Release or ReleaseVector missing from either end
// shows up here as a whole extra payload per trip.
func TestTCPUploadRoundTripAllocs(t *testing.T) {
	client, server := loopbackPair(t)
	params := make([]float64, 17_000)
	for i := range params {
		params[i] = 1 / float64(i+3)
	}
	ru := &transport.RoundUpload{Round: 1, HasPayload: true, Payload: transport.WirePayload{Params: params, NumSamples: 10}}
	size, err := transport.EncodedSize(ru)
	if err != nil {
		t.Fatal(err)
	}

	sent := make(chan error, 1)
	var got transport.RoundUpload
	intact := true
	trip := func() {
		go func() {
			e := &transport.Envelope{Kind: transport.KindUpload, From: 0, To: -1, Round: 1}
			err := e.Encode(ru)
			if err == nil {
				err = client.Send(e)
			}
			e.Release()
			sent <- err
		}()
		in, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		err = transport.Decode(in.Payload, &got)
		in.Release()
		if err != nil {
			t.Fatal(err)
		}
		v := got.Payload.Params
		intact = intact && len(v) == len(params) && v[0] == params[0] && v[len(v)-1] == params[len(params)-1]
		transport.ReleaseVector(v)
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 5; i++ { // warm-up: the lists fill
		trip()
	}
	const trips = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / trips
	t.Logf("%.3f payloads of %d bytes allocated per trip", perTrip/float64(size), size)
	if perTrip >= 0.1*float64(size) {
		t.Errorf("a round trip allocates %.0f bytes, %.2f payloads of %d bytes; want < 0.1 (frames and the decoded vector reused)",
			perTrip, perTrip/float64(size), size)
	}
	if !intact {
		t.Fatalf("a trip decoded params that differ from the %d sent", len(params))
	}
}

// loopbackPair returns both ends of one loopback TCP envelope connection.
func loopbackPair(t *testing.T) (client, server transport.Conn) {
	t.Helper()
	srv, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := srv.Accept()
		accepted <- c
	}()
	client, err = transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		client.Close()
		t.Fatal("loopback accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}
