package distrib

import (
	"bytes"
	"sync"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/transport"
)

// tapConn records every envelope sent through it before sending it on.
type tapConn struct {
	transport.Conn
	sent func(e *transport.Envelope)
}

func (c *tapConn) Send(e *transport.Envelope) error {
	c.sent(e)
	return c.Conn.Send(e)
}

// forwardKey names one client's upload in one round or flush.
type forwardKey struct{ round, client int }

// TestDigestsForwardReceivedForms pins what a leaf sends upward: each digest
// upload is the wire form its client sent, byte for byte once encoded — the
// client's codec, packed sections and delta coding included — never a
// re-encoding of the decoded payload. It taps every client's conn and every
// leaf's upward conn of a 2-shard tree on the bus and runs FedPKD and FedAvg
// under float64raw and int8, and FedAvg's int8 async flushes, where each
// client's params are delta-coded against the global it retained and the root
// decodes them against that client's own reference. Built with
// -tags poisonrelease, a float64raw Params vector the leaf returned before its
// digest was encoded turns to set bits and fails the comparison.
func TestDigestsForwardReceivedForms(t *testing.T) {
	env := distribEnv(t)
	legs := []struct {
		name   string
		build  func() fl.Algorithm
		codec  comm.Codec
		async  bool
		rounds int
	}{
		{"FedPKD/float64raw", func() fl.Algorithm { return chaosFedPKD(t, env) }, comm.CodecFloat64, false, 2},
		{"FedPKD/int8", func() fl.Algorithm { return chaosFedPKD(t, env) }, comm.CodecInt8, false, 2},
		{"FedAvg/float64raw", paramsAlgos(t, env)["FedAvg"], comm.CodecFloat64, false, 2},
		{"FedAvg/int8", paramsAlgos(t, env)["FedAvg"], comm.CodecInt8, false, 2},
		{"FedAvg/int8/async", paramsAlgos(t, env)["FedAvg"], comm.CodecInt8, true, 3},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			s, err := NewService(configured(t, leg.build, leg.codec, leg.async), Options{Mode: ModeBus, Topology: Topology{Shards: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var mu sync.Mutex
			sent := make(map[forwardKey][]byte)
			forwarded := make(map[forwardKey][]byte)
			encode := func(w *transport.WirePayload) []byte {
				b, err := transport.Encode(w)
				if err != nil {
					t.Error(err)
				}
				return b
			}
			for _, p := range s.peers {
				p.conn.SetInner(&tapConn{Conn: p.conn.Inner(), sent: func(e *transport.Envelope) {
					if e.Kind != transport.KindUpload {
						return
					}
					var ru transport.RoundUpload
					if err := transport.Decode(e.Payload, &ru); err != nil {
						t.Error(err)
						return
					}
					defer transport.ReleaseVector(ru.Payload.Params)
					if ru.HasPayload {
						mu.Lock()
						sent[forwardKey{ru.Round, ru.Client}] = encode(&ru.Payload)
						mu.Unlock()
					}
				}})
			}
			for _, up := range s.tree.leafUp {
				up.SetInner(&tapConn{Conn: up.Inner(), sent: func(e *transport.Envelope) {
					var d transport.ShardDigest
					if err := transport.Decode(e.Payload, &d); err != nil {
						t.Error(err)
						return
					}
					defer releaseDigest(&d)
					mu.Lock()
					defer mu.Unlock()
					for i := range d.Uploads {
						su := &d.Uploads[i]
						if su.Payload.Codec != uint8(leg.codec) {
							t.Errorf("round %d: client %d forwarded under codec %d, the round's is %d", d.Round, su.Client, su.Payload.Codec, leg.codec)
						}
						forwarded[forwardKey{d.Round, su.Client}] = encode(&su.Payload)
					}
				}})
			}
			if _, err := s.Run(leg.rounds); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(sent) == 0 || len(forwarded) != len(sent) {
				t.Fatalf("%d uploads sent, %d forwarded; want every sent upload forwarded once", len(sent), len(forwarded))
			}
			for k, want := range sent {
				if got, ok := forwarded[k]; !ok || !bytes.Equal(got, want) {
					t.Errorf("round %d client %d: forwarded %d bytes (present %v), the client sent %d; want the same bytes",
						k.round, k.client, len(got), ok, len(want))
				}
			}
		})
	}
}
