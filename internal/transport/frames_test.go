package transport

import (
	"bytes"
	"testing"
)

// resetFrameList empties the free list for one test and restores it after,
// so a test's counts do not depend on what ran before it.
func resetFrameList(t *testing.T) {
	t.Helper()
	frameList.mu.Lock()
	saved := frameList.free
	frameList.free = nil
	frameList.mu.Unlock()
	t.Cleanup(func() {
		frameList.mu.Lock()
		frameList.free = saved
		frameList.mu.Unlock()
	})
}

func freeFrames() int {
	frameList.mu.Lock()
	defer frameList.mu.Unlock()
	return len(frameList.free)
}

// TestReleaseIsIdempotent: releasing an envelope twice, releasing a struct
// copy of one, or releasing an envelope built by hand never puts a buffer on
// the free list twice, and the list never grows past its cap.
func TestReleaseIsIdempotent(t *testing.T) {
	resetFrameList(t)

	hand := &Envelope{Kind: KindUpload, Payload: []byte{1, 2, 3}}
	hand.Release()
	hand.Release()
	var none *Envelope
	none.Release()
	if n := freeFrames(); n != 0 || !bytes.Equal(hand.Payload, []byte{1, 2, 3}) {
		t.Fatalf("releasing a hand-built envelope changed it (%v) or the list (%d buffers)", hand.Payload, n)
	}

	e := &Envelope{Kind: KindRoundEnd}
	if err := e.Encode(RoundEnd{Round: 1, Err: "aborted"}); err != nil {
		t.Fatal(err)
	}
	twin := *e // a struct copy names the same buffer
	e.Release()
	e.Release()
	twin.Release()
	if e.Payload != nil {
		t.Errorf("a released envelope still has a payload: %v", e.Payload)
	}
	if n := freeFrames(); n != 1 {
		t.Fatalf("one buffer released three ways left %d buffers on the list, want 1", n)
	}

	for i := 0; i < 2*frameListCap; i++ {
		putFrame(make([]byte, 16))
	}
	if n := freeFrames(); n != frameListCap {
		t.Fatalf("list holds %d buffers, cap %d", n, frameListCap)
	}
}
