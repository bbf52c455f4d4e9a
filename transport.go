package fedpkd

import (
	"fedpkd/internal/transport"
)

// Networking types for running the protocols as real communicating
// processes (see examples/distributed), aliased for the public surface.
type (
	// Envelope is the unit of transfer between federated peers.
	Envelope = transport.Envelope
	// MessageKind labels an envelope's payload type.
	MessageKind = transport.Kind
	// Conn is a bidirectional, ordered envelope stream.
	Conn = transport.Conn
	// Bus is the in-memory transport with the same semantics as TCP.
	Bus = transport.Bus

	// WirePayload is the serialized knowledge container every algorithm
	// exchanges.
	WirePayload = transport.WirePayload
	// RoundStart opens a round, carrying the front-loaded global state.
	RoundStart = transport.RoundStart
	// RoundUpload is one client's local-update upload.
	RoundUpload = transport.RoundUpload
	// RoundEnd closes a round, carrying the aggregation broadcast.
	RoundEnd = transport.RoundEnd
)

// Message kinds.
const (
	KindRoundStart = transport.KindRoundStart
	KindUpload     = transport.KindUpload
	KindRoundEnd   = transport.KindRoundEnd
	KindControl    = transport.KindControl
)

// NewBus returns an in-memory transport for n clients.
func NewBus(n, buffer int) *Bus { return transport.NewBus(n, buffer) }

// EncodePayload encodes an envelope payload in the transport's binary wire
// format (version byte, message tag, body, CRC-32C trailer). v is one of the
// round messages — RoundStart, RoundUpload, RoundEnd, a bare WirePayload, or
// the aggregator tree's shard messages — by value or by pointer; anything
// else fails with an error matching transport.ErrUnknownMessage.
func EncodePayload(v any) ([]byte, error) { return transport.Encode(v) }

// DecodePayload decodes an envelope payload into v, a pointer to the round
// message the envelope's kind announces. A payload that was corrupted, cut
// short, or holds a different message fails with a named transport error
// (ErrChecksum, ErrTruncated, ErrMessageTag, ErrFormatVersion); a decoded
// message still has to pass its Validate.
func DecodePayload(payload []byte, v any) error { return transport.Decode(payload, v) }
