package transport

import "fmt"

// Shard protocol messages for the two-tier aggregator tree. The client-side
// protocol is untouched — clients still exchange RoundStart/RoundUpload/
// RoundEnd envelopes — but in a tree those envelopes are framed by the root
// and fanned by the shard's leaf aggregator. The leaf↔root tier speaks the
// three messages below: an assignment down, a digest up, a close down.
//
// Digest payloads always travel float64raw regardless of the client-plane
// codec: the leaf has already decoded (and, under a compressing codec,
// dequantized) each upload, and the backhaul links of a hierarchy are
// datacenter links where the edge-compression story does not apply. The
// float64raw encoding round-trips losslessly, so the root reconstructs the
// exact payload values the leaf decoded.

// ClientStart is one client's entry in a shard assignment. In a synchronous
// round every entry shares the assignment's Start/Ref (one global fans to
// everyone); an async flush overrides both per client, because each chosen
// client trains against its own retained dispatched global.
type ClientStart struct {
	// Client is the universe id the leaf fans this entry to.
	Client int
	// Start, when non-nil, overrides the assignment's shared Start: the
	// encoded RoundStart envelope payload for this client.
	Start []byte
	// HasGlobal and StartRaw override the shared billing facts when Start is
	// non-nil (whether the RoundStart carries knowledge, and its raw-
	// equivalent envelope size under a compressing codec).
	HasGlobal bool
	StartRaw  int
	// Ref, when non-nil, overrides the assignment's shared Ref: the delta
	// reference this client's upload decodes against.
	Ref []float64
}

// ShardAssign is the root→leaf round opening: everything a leaf needs to
// fan RoundStart to its shard, collect the shard's uploads, and bill the
// client plane exactly as the flat server would have.
type ShardAssign struct {
	// Round is the round (or async flush) index; Shard names the receiving
	// leaf.
	Round int
	Shard int
	// Compact asks the leaf to stream-fold uploads through the algorithm's
	// CompactReducer instead of retaining them.
	Compact bool
	// Start is the shared encoded RoundStart payload (sync rounds);
	// HasGlobal/StartRaw are its billing facts; Ref is the shared upload
	// delta reference. Per-client overrides live in Clients.
	Start     []byte
	HasGlobal bool
	StartRaw  int
	Ref       []float64
	// Clients lists the shard's cohort members in ascending id order.
	Clients []ClientStart
}

// Validate rejects structurally inconsistent shard assignments.
func (sa *ShardAssign) Validate() error {
	if sa.Round < 0 {
		return fmt.Errorf("transport: shard assign round %d negative", sa.Round)
	}
	if sa.Shard < 0 {
		return fmt.Errorf("transport: shard assign shard %d negative", sa.Shard)
	}
	last := -1
	for _, cs := range sa.Clients {
		if cs.Client < 0 || cs.Client > maxWireDim {
			return fmt.Errorf("transport: shard assign client id %d out of range", cs.Client)
		}
		if cs.Client <= last {
			return fmt.Errorf("transport: shard assign clients out of order (%d after %d)", cs.Client, last)
		}
		last = cs.Client
	}
	return nil
}

// ShardUpload is one surviving upload forwarded inside an exact-mode
// digest: the client id and its decoded payload re-encoded float64raw.
type ShardUpload struct {
	Client  int
	Payload WirePayload
}

// ShardDigest is the leaf→root half of a round: the shard's reduction plus
// its membership report. Exact mode fills Uploads (sorted by client id);
// compact mode fills Sum/Weight/Count. Err carries a shard-level round
// error (a client-reported hook failure, a strict-mode protocol violation)
// for the root to surface in the round's RoundEnd.
type ShardDigest struct {
	Round int
	Shard int
	// Uploads is the exact-mode payload: the shard's surviving uploads in
	// ascending client order.
	Uploads []ShardUpload
	// HasSum marks a compact digest; Sum is the shard's running sum, Weight
	// and Count its folded weight and contribution count.
	HasSum bool
	Sum    WirePayload
	Weight float64
	Count  int
	// Heard is the number of distinct shard members whose uploads arrived in
	// time; Missing lists the rest, ascending.
	Heard   int
	Missing []int
	// Err is the shard's round error, empty when the shard reduced cleanly.
	Err string
}

// Validate rejects structurally inconsistent shard digests. Upload payloads
// are validated individually — the root aggregates them, so a corrupt
// forwarded payload must be caught at the tier boundary.
func (sd *ShardDigest) Validate() error {
	if sd.Round < 0 {
		return fmt.Errorf("transport: shard digest round %d negative", sd.Round)
	}
	if sd.Shard < 0 {
		return fmt.Errorf("transport: shard digest shard %d negative", sd.Shard)
	}
	if sd.Heard < 0 || sd.Heard > maxWireDim {
		return fmt.Errorf("transport: shard digest heard %d out of range", sd.Heard)
	}
	last := -1
	for i := range sd.Uploads {
		su := &sd.Uploads[i]
		if su.Client < 0 || su.Client > maxWireDim {
			return fmt.Errorf("transport: shard digest client id %d out of range", su.Client)
		}
		if su.Client <= last {
			return fmt.Errorf("transport: shard digest uploads out of order (%d after %d)", su.Client, last)
		}
		last = su.Client
		if err := su.Payload.Validate(); err != nil {
			return fmt.Errorf("transport: shard digest client %d: %w", su.Client, err)
		}
	}
	if sd.HasSum {
		if len(sd.Uploads) > 0 {
			return fmt.Errorf("transport: shard digest carries both uploads and a compact sum")
		}
		if sd.Count < 0 || sd.Count > maxWireDim {
			return fmt.Errorf("transport: shard digest count %d out of range", sd.Count)
		}
		if err := sd.Sum.Validate(); err != nil {
			return fmt.Errorf("transport: shard digest sum: %w", err)
		}
	}
	return nil
}

// ShardEnd is the root→leaf round close: the encoded RoundEnd payload the
// leaf fans to its shard, with the billing facts the flat server would have
// used.
type ShardEnd struct {
	Round int
	Shard int
	// End is the encoded RoundEnd envelope payload (shared by every cohort
	// member, exactly like the flat path).
	End []byte
	// HasBroadcast and EndRaw are End's billing facts: whether it carries
	// knowledge, and its raw-equivalent envelope size under a compressing
	// codec.
	HasBroadcast bool
	EndRaw       int
}

// Validate rejects structurally inconsistent shard ends.
func (se *ShardEnd) Validate() error {
	if se.Round < 0 {
		return fmt.Errorf("transport: shard end round %d negative", se.Round)
	}
	if se.Shard < 0 {
		return fmt.Errorf("transport: shard end shard %d negative", se.Shard)
	}
	if len(se.End) == 0 {
		return fmt.Errorf("transport: shard end without an encoded RoundEnd")
	}
	return nil
}
