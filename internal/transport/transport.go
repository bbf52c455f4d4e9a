// Package transport provides real message passing for running the federated
// protocols as communicating processes rather than an in-process loop: a
// message envelope, a binary codec for the round messages it carries
// (codec.go), an in-memory bus for tests, and a length-prefixed TCP transport
// used by examples/distributed.
//
// The core simulation in internal/fl calls algorithms directly for speed and
// accounts bytes through internal/comm; this package exists so the same
// payloads can also cross a real network boundary.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind labels the payload type of an envelope.
type Kind uint8

// Message kinds exchanged by the federated protocols — one per phase edge
// of the engine's round skeleton, shared by every algorithm.
const (
	// KindRoundStart opens a round (server → client), carrying the
	// front-loaded global state when the algorithm has one.
	KindRoundStart Kind = iota + 1
	// KindUpload carries a client's local-update payload (client → server).
	KindUpload
	// KindRoundEnd closes a round (server → client), carrying the
	// aggregation broadcast when there is one.
	KindRoundEnd
	// KindControl carries round-control messages (start, stop).
	KindControl
	// KindHello registers a client with the server's registry (client →
	// server). It doubles as the TCP attach handshake: a dialing client opens
	// with a hello naming its id and the server acks with a hello addressed
	// back. Round -1 marks registration traffic outside any round.
	KindHello
	// KindGoodbye deregisters a client (client → server): the peer leaves the
	// registered population at the next round barrier and is no longer
	// scheduled into cohorts.
	KindGoodbye
	// KindShardAssign hands a leaf aggregator its shard's round assignment
	// (root → leaf): the round framing each shard member must receive, plus
	// the delta references their uploads decode against.
	KindShardAssign
	// KindShardDigest carries a leaf's reduced shard — its surviving uploads
	// plus the shard's membership report — upward (leaf → root).
	KindShardDigest
	// KindShardEnd closes a shard's round (root → leaf), carrying the
	// encoded RoundEnd the leaf fans to its clients.
	KindShardEnd
)

// String returns the kind name for logs.
func (k Kind) String() string {
	switch k {
	case KindRoundStart:
		return "round-start"
	case KindUpload:
		return "upload"
	case KindRoundEnd:
		return "round-end"
	case KindControl:
		return "control"
	case KindHello:
		return "hello"
	case KindGoodbye:
		return "goodbye"
	case KindShardAssign:
		return "shard-assign"
	case KindShardDigest:
		return "shard-digest"
	case KindShardEnd:
		return "shard-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Envelope is the unit of transfer: a typed, round-stamped payload between
// two peers. Peer -1 denotes the server. An envelope from Recv or
// Envelope.Encode owns the free-list buffer its payload lives in until
// Release (frames.go); one built by hand owns nothing.
type Envelope struct {
	Kind    Kind
	From    int
	To      int
	Round   int
	Payload []byte

	buf []byte // the free-list buffer Payload lives in; nil when none is owned
}

// WireSize returns the envelope's size on the wire (header + payload),
// matching what the TCP transport actually writes.
func (e *Envelope) WireSize() int {
	return EnvelopeHeaderSize + len(e.Payload)
}

// EnvelopeHeaderSize is the fixed header every envelope carries on the wire:
// kind + from + to + round + payload length.
const EnvelopeHeaderSize = 1 + 4 + 4 + 4 + 4

// maxPayload bounds a single envelope payload (64 MiB): a sender refuses to
// frame more, and a receiver fails fast on a corrupt length prefix rather
// than allocating unbounded memory.
const maxPayload = 64 << 20

// ErrPayloadTooLarge marks an envelope whose payload exceeds the 64 MiB frame
// limit. Send returns it before writing anything, so the stream stays in
// step; Recv returns it for a length prefix no sender could have written.
var ErrPayloadTooLarge = errors.New("transport: envelope payload exceeds the frame limit")

// checkPayloadSize is the send-side half of the frame limit.
func checkPayloadSize(e *Envelope) error {
	if len(e.Payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrPayloadTooLarge, len(e.Payload), maxPayload)
	}
	return nil
}

// Conn is a bidirectional, ordered envelope stream.
type Conn interface {
	// Send transmits one envelope. It borrows e and e.Payload for the length
	// of the call only: the caller may send e again, change it or Release it
	// once Send returns.
	Send(e *Envelope) error
	// Recv blocks until the next envelope arrives, returning io.EOF after
	// the peer closes. The envelope owns its payload buffer until the caller
	// Releases it.
	Recv() (*Envelope, error)
	// Close releases the connection; subsequent Sends fail.
	Close() error
}

// putHeader writes e's fixed header into hdr.
func putHeader(hdr *[EnvelopeHeaderSize]byte, e *Envelope) {
	hdr[0] = byte(e.Kind)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(int32(e.From)))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(int32(e.To)))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(int32(e.Round)))
	binary.BigEndian.PutUint32(hdr[13:17], uint32(len(e.Payload)))
}

// readEnvelope deserializes one envelope from r, using hdr as header scratch,
// into a payload buffer from the free list.
func readEnvelope(r io.Reader, hdr *[EnvelopeHeaderSize]byte) (*Envelope, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[13:17])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: length prefix %d, limit %d", ErrPayloadTooLarge, n, maxPayload)
	}
	payload := frameList.get(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		frameList.put(payload)
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return &Envelope{
		Kind:    Kind(hdr[0]),
		From:    int(int32(binary.BigEndian.Uint32(hdr[1:5]))),
		To:      int(int32(binary.BigEndian.Uint32(hdr[5:9]))),
		Round:   int(int32(binary.BigEndian.Uint32(hdr[9:13]))),
		Payload: payload,
		buf:     payload,
	}, nil
}
