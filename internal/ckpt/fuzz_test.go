package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
)

// maxReadExpansion bounds the heap Read allocates per input byte, over a
// fixed readHeapSlack for the reader, the empty dict and error text. The
// stream is read whole once (io.ReadAll's growth copies included) and the
// sections alias it; the widest ratio is a section with a one-byte name, 13
// encoded bytes that cost a name string, a section entry and an index entry.
const (
	maxReadExpansion = 32
	readHeapSlack    = 4096
)

// FuzzRead feeds the container parser arbitrary streams twice: as given,
// which mostly exercises the header and checksum, and with the trailer
// replaced by the body's CRC, which takes every input through the section
// parser.
func FuzzRead(f *testing.F) {
	many := NewDict(nil)
	for i := 0; i < 40; i++ {
		many.Put(fmt.Sprint(i), nil)
	}
	seeds := []*Dict{NewDict(nil), many}
	one := NewDict(nil)
	one.Put("weights", bytes.Repeat([]byte{0xab}, 64))
	one.Put("", []byte("x"))
	seeds = append(seeds, one)
	for _, d := range seeds {
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil { // first-use allocations
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRead(t, data)
		if len(data) >= crc32.Size {
			body := data[:len(data)-crc32.Size]
			checkRead(t, binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

// checkRead holds Read to its contract on data: it never panics, allocates
// within the stated bound, and either fails or returns a dict whose
// re-encoding reads back to the same dict.
func checkRead(t *testing.T, data []byte) {
	if grew := allocated(func() { Read(bytes.NewReader(data)) }); grew > uint64(maxReadExpansion*len(data)+readHeapSlack) {
		t.Fatalf("Read of %d bytes allocated %d", len(data), grew)
	}
	d, err := Read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var enc, again bytes.Buffer
	if err := Write(&enc, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded dict rejected: %v", err)
	}
	if err := Write(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), again.Bytes()) {
		t.Fatalf("dict changed across a re-encode:\n %x\n %x", enc.Bytes(), again.Bytes())
	}
}

// FuzzParseRoundFileName holds the checkpoint-directory scan's name filter to
// its contract: it never panics, and every name it accepts is the one
// RoundFileName writes for the round it returns, so a directory scan can
// neither pick up a stray file nor read one round as another.
func FuzzParseRoundFileName(f *testing.F) {
	for _, s := range []string{
		RoundFileName(0), RoundFileName(17), RoundFileName(1234567), "ckpt-1.fpkc", "ckpt-+000001.fpkc",
		"ckpt--00001.fpkc", "ckpt-.fpkc", "ckpt-000001.fpkc.tmp-42", "other-000001.fpkc", "ckpt-99999999999999999999.fpkc",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, base string) {
		round, ok := ParseRoundFileName(base)
		if !ok {
			return
		}
		if round < 0 || RoundFileName(round) != base {
			t.Fatalf("ParseRoundFileName(%q) accepted round %d, which RoundFileName writes as %q", base, round, RoundFileName(round))
		}
	})
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
