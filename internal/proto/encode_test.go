package proto

import (
	"bytes"
	"runtime"
	"testing"

	"fedpkd/internal/ckpt"
)

// encodeSet is Set.Encode into a fresh encoder.
func encodeSet(s *Set) []byte {
	e := ckpt.NewEnc()
	s.Encode(e)
	return e.Buf()
}

func TestSetEncodeDecodeRoundTrip(t *testing.T) {
	s := NewSet(5, 3)
	s.Vectors[0] = []float64{1, 2, 3}
	s.Counts[0] = 7
	s.Vectors[3] = []float64{-0.5, 0, 4.25}
	s.Counts[3] = 2

	got, err := DecodeSet(encodeSet(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes != 5 || got.Dim != 3 || got.Len() != 2 {
		t.Fatalf("decoded shape: %d classes, %d dim, %d protos", got.Classes, got.Dim, got.Len())
	}
	for class, vec := range s.Vectors {
		gv, ok := got.Vectors[class]
		if !ok {
			t.Fatalf("class %d missing after round trip", class)
		}
		for j := range vec {
			if gv[j] != vec[j] {
				t.Fatalf("class %d dim %d: %v != %v", class, j, gv[j], vec[j])
			}
		}
		if got.Counts[class] != s.Counts[class] {
			t.Fatalf("class %d count %d != %d", class, got.Counts[class], s.Counts[class])
		}
	}
}

func TestSetEncodeDeterministic(t *testing.T) {
	// Same contents inserted in different orders must encode identically —
	// the map-order independence the resume goldens rely on.
	a := NewSet(4, 2)
	a.Vectors[2] = []float64{1, 1}
	a.Counts[2] = 1
	a.Vectors[0] = []float64{2, 2}
	a.Counts[0] = 3

	b := NewSet(4, 2)
	b.Vectors[0] = []float64{2, 2}
	b.Counts[0] = 3
	b.Vectors[2] = []float64{1, 1}
	b.Counts[2] = 1

	if !bytes.Equal(encodeSet(a), encodeSet(b)) {
		t.Fatal("insertion order leaked into the encoding")
	}
}

// maxSetExpansion bounds DecodeSet's heap per input byte, over a fixed 1 KiB
// for the set and error text. The widest ratio is an entry with an empty
// vector: 20 encoded bytes, one slot in each of the two maps, and the maps'
// growth copies.
const maxSetExpansion = 16

// FuzzDecodeSet holds the prototype-set codec to its contract on arbitrary
// bytes: no panic, heap within the stated bound, and either an error or a
// set whose re-encoding decodes to the same bytes again.
func FuzzDecodeSet(f *testing.F) {
	s := NewSet(5, 3)
	s.Vectors[0] = []float64{1, 2, 3}
	s.Counts[0] = 7
	s.Vectors[3] = []float64{-0.5, 0, 4.25}
	s.Counts[3] = 2
	f.Add(encodeSet(s))
	f.Add(encodeSet(NewSet(10, 0)))
	if _, err := DecodeSet(encodeSet(s)); err != nil { // first-use allocations
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew := allocated(func() { DecodeSet(data) }); grew > uint64(maxSetExpansion*len(data)+1024) {
			t.Fatalf("DecodeSet of %d bytes allocated %d", len(data), grew)
		}
		s, err := DecodeSet(data)
		if err != nil {
			return
		}
		enc := encodeSet(s)
		back, err := DecodeSet(enc)
		if err != nil {
			t.Fatalf("re-encoded set rejected: %v", err)
		}
		if again := encodeSet(back); !bytes.Equal(again, enc) {
			t.Fatalf("set changed across a re-encode:\n %x\n %x", enc, again)
		}
	})
}

func TestDecodeSetRejectsCorruption(t *testing.T) {
	s := NewSet(3, 2)
	s.Vectors[1] = []float64{1, 2}
	s.Counts[1] = 4
	enc := encodeSet(s)
	if _, err := DecodeSet(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated set accepted")
	}
	if _, err := DecodeSet(nil); err == nil {
		t.Fatal("empty bytes accepted")
	}
}

// allocated reports the fewest heap bytes any of three runs of fn allocated,
// which screens out allocations the fuzzing engine makes concurrently.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
