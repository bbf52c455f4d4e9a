package transport

import "sync"

// Frame buffers. Every payload the transport hands out — an envelope Recv
// read off a socket, the receiver's copy a bus Send makes, a message
// Envelope.Encode writes — lives in a buffer from one process-wide free list,
// and Envelope.Release gives it back. The ownership contract that makes the
// reuse safe:
//
//   - Conn.Send borrows e.Payload for the length of the call. Once Send
//     returns, the sender may reuse, scribble on or Release the bytes; a
//     transport that delivers after Send returns (the bus) delivers a copy.
//   - An envelope Recv returns owns its buffer until Release. Decode copies
//     every section out of the payload, so a consumer releases right after
//     Decode, and releases an envelope it drops unread at once.
//
// A missed Release costs one allocation later and is never a correctness
// bug: the garbage collector reclaims the buffer. A Release too early is: the
// next Recv may read a stranger's frame into the bytes.
//
// The list is a LIFO of at most frameListCap buffers. It is bounded because
// the garbage collector counts every buffer it retains as live heap and paces
// the next cycle from it: a longer list allocates less and holds more
// resident set. DESIGN §4 has the cap sweep.
const frameListCap = 8

var frameList struct {
	mu   sync.Mutex
	free [][]byte // each with len 0; the most recently returned last
}

// getFrame returns a buffer of length n: the most recently returned free
// buffer with room for n bytes, or a new one. Its contents are unspecified.
func getFrame(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	frameList.mu.Lock()
	free := frameList.free
	for i := len(free) - 1; i >= 0; i-- {
		if b := free[i]; cap(b) >= n {
			frameList.free = append(free[:i], free[i+1:]...)
			frameList.mu.Unlock()
			return b[:n]
		}
	}
	frameList.mu.Unlock()
	return make([]byte, n)
}

// putFrame returns b to the list; a full list lets the collector have it. A
// buffer already on the list is not added twice.
func putFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	frameList.mu.Lock()
	defer frameList.mu.Unlock()
	if len(frameList.free) == frameListCap {
		return
	}
	for _, f := range frameList.free {
		if &f[:1][0] == &b[:1][0] {
			return
		}
	}
	frameList.free = append(frameList.free, b[:0])
}

// Release returns the buffer e's payload lives in to the transport's free
// list and clears Payload. It is a no-op on an envelope that owns no buffer
// — one built by hand, or already released — so releasing twice is safe.
// Take WireSize before Release: it counts the payload.
func (e *Envelope) Release() {
	if e == nil || e.buf == nil {
		return
	}
	putFrame(e.buf)
	e.buf, e.Payload = nil, nil
}

// Encode serializes v, one of the seven message types, into a buffer from
// the transport's free list and makes it e's Payload, releasing whatever
// buffer e owned before. The bytes are exactly Encode(v)'s. e owns the buffer
// until Release; the caller releases it after its last Send.
func (e *Envelope) Encode(v any) error {
	b, err := encode(v, getFrame)
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
	e.buf = getFrame(len(src))
	e.Payload = e.buf
	copy(e.Payload, src)
}
