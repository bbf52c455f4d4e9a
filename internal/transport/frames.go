package transport

import (
	"math"
	"sync"
)

// Owned buffers. The transport keeps two process-wide free lists of the same
// type: frames, the bytes every envelope payload lives in, and vectors, the
// float64 slices every Params section decodes into.
//
// Frames. Every payload the transport hands out — an envelope Recv read off
// a socket, the receiver's copy a bus Send makes, a message Envelope.Encode
// writes — lives in a buffer from the frame list, and Envelope.Release gives
// it back. The ownership contract that makes the reuse safe:
//
//   - Conn.Send borrows e.Payload for the length of the call. Once Send
//     returns, the sender may reuse, scribble on or Release the bytes; a
//     transport that delivers after Send returns (the bus) delivers a copy.
//   - An envelope Recv returns owns its buffer until Release. Decode copies
//     every section out of the payload, so a consumer releases right after
//     Decode, and releases an envelope it drops unread at once.
//
// Vectors. Decode takes every Params and Ref vector from the vector list,
// and ToPayloadRef decodes a packed params section into one; Vector lends
// one to a caller that fills it itself. Whoever holds such a vector returns
// it with ReleaseVector once nothing reads it any more.
//
// A missed release costs one allocation later and is never a correctness
// bug: the garbage collector reclaims the buffer. A release too early is:
// the next Recv may read a stranger's frame into the bytes, the next decode
// a stranger's parameters into the vector.
//
// Each list is a LIFO of at most its cap buffers. It is bounded because the
// garbage collector counts every buffer it retains as live heap and paces the
// next cycle from it: a longer list allocates less and holds more resident
// set. DESIGN §4 has both cap sweeps.
const (
	frameListCap  = 8
	vectorListCap = 32
)

var (
	frameList  = freeList[byte]{max: frameListCap, poison: 0xFF}
	vectorList = freeList[float64]{max: vectorListCap, poison: math.Float64frombits(^uint64(0))}
)

// freeList is a bounded LIFO of reusable buffers.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T // each with len 0; the most recently returned last
	max  int
	// poison is what a build with the poisonrelease tag overwrites every
	// returned buffer with (all bits set: 0xFF bytes, NaN floats), so a read
	// after an early release shows in the results.
	poison T
}

// get returns a buffer of length n: the most recently returned free buffer
// with room for n elements, or a new one. Its contents are unspecified.
func (l *freeList[T]) get(n int) []T {
	if n == 0 {
		return []T{}
	}
	l.mu.Lock()
	free := l.free
	for i := len(free) - 1; i >= 0; i-- {
		if b := free[i]; cap(b) >= n {
			l.free = append(free[:i], free[i+1:]...)
			l.mu.Unlock()
			return b[:n]
		}
	}
	l.mu.Unlock()
	return make([]T, n)
}

// put returns b to the list. A full list lets the collector have its oldest
// buffer, so that the list follows the sizes in use: a list full of small
// buffers would otherwise turn every large one away. A buffer already on the
// list is not added twice.
func (l *freeList[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = l.poison
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.free {
		if &f[:1][0] == &b[:1][0] {
			return
		}
	}
	if len(l.free) == l.max {
		n := copy(l.free, l.free[1:])
		l.free[n] = nil
		l.free = l.free[:n]
	}
	l.free = append(l.free, b[:0])
}

// Vector returns a vector of length n from the transport's vector list, for
// a caller that overwrites every element (a parameter flatten). Its contents
// are unspecified. Return it with ReleaseVector once nothing reads it.
func Vector(n int) []float64 { return vectorList.get(n) }

// ReleaseVector returns v — a vector from Vector, or a Params or Ref vector
// Decode or ToPayloadRef produced — to the vector list. Release only a vector
// no one reads any more: its next holder overwrites it. A nil or empty v,
// or one already on the list, is a no-op.
func ReleaseVector(v []float64) { vectorList.put(v) }

// Release returns the buffer e's payload lives in to the transport's free
// list and clears Payload. It is a no-op on an envelope that owns no buffer
// — one built by hand, or already released — so releasing twice is safe.
// Take WireSize before Release: it counts the payload.
func (e *Envelope) Release() {
	if e == nil || e.buf == nil {
		return
	}
	frameList.put(e.buf)
	e.buf, e.Payload = nil, nil
}

// Encode serializes v, one of the seven message types, into a buffer from
// the transport's free list and makes it e's Payload, releasing whatever
// buffer e owned before. The bytes are exactly Encode(v)'s. e owns the buffer
// until Release; the caller releases it after its last Send.
func (e *Envelope) Encode(v any) error {
	b, err := encode(v, frameList.get)
	if err != nil {
		return err
	}
	e.Release()
	e.buf, e.Payload = b, b
	return nil
}

// copyFrom gives e a free-list copy of src's payload, the copy a bus Send
// delivers: src's bytes are only borrowed.
func (e *Envelope) copyFrom(src []byte) {
	if src == nil {
		return
	}
	e.buf = frameList.get(len(src))
	e.Payload = e.buf
	copy(e.Payload, src)
}
