package transport

import (
	"bytes"
	"testing"
)

// resetList empties l for one test and restores it after, so a test's
// counts do not depend on what ran before it.
func resetList[T any](t *testing.T, l *freeList[T]) {
	t.Helper()
	l.mu.Lock()
	saved := l.free
	l.free = nil
	l.mu.Unlock()
	t.Cleanup(func() {
		l.mu.Lock()
		l.free = saved
		l.mu.Unlock()
	})
}

func listed[T any](l *freeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// TestReleaseIsIdempotent: releasing an envelope twice, releasing a struct
// copy of one, or releasing an envelope built by hand never puts a buffer on
// the free list twice, and the list never grows past its cap.
func TestReleaseIsIdempotent(t *testing.T) {
	resetList(t, &frameList)

	hand := &Envelope{Kind: KindUpload, Payload: []byte{1, 2, 3}}
	hand.Release()
	hand.Release()
	var none *Envelope
	none.Release()
	if n := listed(&frameList); n != 0 || !bytes.Equal(hand.Payload, []byte{1, 2, 3}) {
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
	if n := listed(&frameList); n != 1 {
		t.Fatalf("one buffer released three ways left %d buffers on the list, want 1", n)
	}

	for i := 0; i < 2*frameListCap; i++ {
		frameList.put(make([]byte, 16))
	}
	if n := listed(&frameList); n != frameListCap {
		t.Fatalf("list holds %d buffers, cap %d", n, frameListCap)
	}
}

// TestReleaseVectorReuses holds the vector list to the frame list's rules:
// a released vector is the next one of its size handed out, releasing twice
// or releasing nil lists nothing twice, a vector too small for a request is
// skipped, and the list never grows past its cap.
func TestReleaseVectorReuses(t *testing.T) {
	resetList(t, &vectorList)

	ReleaseVector(nil)
	ReleaseVector([]float64{})
	v := Vector(100)
	ReleaseVector(v)
	ReleaseVector(v)
	if n := listed(&vectorList); n != 1 {
		t.Fatalf("one vector released twice left %d on the list, want 1", n)
	}
	if big := Vector(200); &big[0] == &v[0] {
		t.Fatal("a 100-float vector served a request for 200")
	}
	if again := Vector(80); len(again) != 80 || &again[0] != &v[0] {
		t.Fatal("the released vector was not reused for a smaller request")
	}
	for i := 0; i < 2*vectorListCap; i++ {
		ReleaseVector(make([]float64, 4))
	}
	if n := listed(&vectorList); n != vectorListCap {
		t.Fatalf("list holds %d vectors, cap %d", n, vectorListCap)
	}
}

// TestReleaseVectorDecodedParams: Decode takes a Params vector from the
// list, and the decoded values survive until the holder releases it.
func TestReleaseVectorDecodedParams(t *testing.T) {
	resetList(t, &vectorList)

	params := []float64{1.5, -2.25, 3.125, 1 / 3.0, 7}
	b, err := Encode(RoundUpload{Round: 1, HasPayload: true, Payload: WirePayload{Params: params, NumSamples: 1}})
	if err != nil {
		t.Fatal(err)
	}
	listedVec := make([]float64, 8)
	ReleaseVector(listedVec)
	var ru RoundUpload
	if err := Decode(b, &ru); err != nil {
		t.Fatal(err)
	}
	got := ru.Payload.Params
	if &got[:1][0] != &listedVec[0] || listed(&vectorList) != 0 {
		t.Fatal("Decode did not take its Params vector from the list")
	}
	for i := range params {
		if got[i] != params[i] {
			t.Fatalf("decoded params %v, want %v", got, params)
		}
	}
	ReleaseVector(got)
	if listed(&vectorList) != 1 {
		t.Fatal("the decoded vector did not go back")
	}
}
