package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc()
	e.U32(7)
	e.U64(1 << 40)
	e.I64(-99)
	e.F64(math.Pi)
	e.F64s([]float64{1.5, -2.5, math.Inf(1)})
	e.String("hello")
	e.U32(2)
	e.F64s(nil)

	d := NewDec(e.Buf())
	if v := d.U32(); v != 7 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -99 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if fs := d.F64s(); len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.5 || !math.IsInf(fs[2], 1) {
		t.Fatalf("F64s = %v", fs)
	}
	if s := d.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	// Two elements of 8+ bytes fit in the empty F64s that follows.
	if n := d.Count(4); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if fs := d.F64s(); fs == nil || len(fs) != 0 {
		t.Fatalf("empty F64s = %#v, want a non-nil empty slice", fs)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("Err = %v, Remaining = %d", d.Err(), d.Remaining())
	}
}

// TestDecUnderflow pins the sticky contract: the first failure is kept and
// names its offset, every later read is zero, and a count or length prefix
// larger than the bytes left fails before anything is sized by it.
func TestDecUnderflow(t *testing.T) {
	e := NewEnc()
	e.U32(7)
	e.String("hi")
	d := NewDec(e.Buf()[:9]) // the string's last byte is cut
	if v := d.U32(); v != 7 {
		t.Fatalf("U32 = %d", v)
	}
	if s := d.String(); s != "" {
		t.Fatalf("truncated String = %q", s)
	}
	first := d.Err()
	if first == nil || !strings.Contains(first.Error(), "offset 8") {
		t.Fatalf("Err = %v, want a truncation at offset 8", first)
	}
	if d.U32() != 0 || d.U64() != 0 || d.I64() != 0 || d.F64() != 0 || d.F64s() != nil || d.String() != "" || d.Count(1) != 0 {
		t.Fatal("a read after an underflow returned a non-zero value")
	}
	d.Fail(errors.New("later"))
	if d.Err() != first {
		t.Fatalf("Err = %v, want the first error %v", d.Err(), first)
	}

	d = NewDec(nil)
	d.Fail(errors.New("shape"))
	if d.U32() != 0 || d.Err().Error() != "shape" {
		t.Fatalf("Fail did not stick: U32 after it read, Err = %v", d.Err())
	}

	huge := NewEnc()
	huge.U64(1 << 30)
	huge.U32(0xFFFFFFFF)
	for name, read := range map[string]func(*Dec){
		"F64s":  func(d *Dec) { d.F64s() },
		"Count": func(d *Dec) { d.U64(); d.Count(1) },
	} {
		d := NewDec(huge.Buf())
		if read(d); d.Err() == nil {
			t.Errorf("%s with an oversized prefix decoded", name)
		}
		if grew := allocated(func() { read(NewDec(huge.Buf())) }); grew > 4096 {
			t.Errorf("%s with an oversized prefix allocated %d bytes", name, grew)
		}
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict(nil)
	d.Put("b", []byte("two"))
	d.Put("a", []byte("one"))
	d.Put("b", []byte("two-replaced")) // replace keeps position

	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"b", "a"}
	gotNames := got.Names()
	if len(gotNames) != 2 || gotNames[0] != wantNames[0] || gotNames[1] != wantNames[1] {
		t.Fatalf("Names = %v, want %v", gotNames, wantNames)
	}
	if b, _ := got.Get("b"); string(b) != "two-replaced" {
		t.Fatalf("b = %q", b)
	}
	if _, err := got.MustGet("missing"); err == nil || !strings.Contains(err.Error(), `"missing"`) {
		t.Fatalf("MustGet(missing) = %v, want error naming the section", err)
	}
}

// TestEncF64sMatchesPerValue pins the bulk float encoder to the layout of one
// F64 per value: the same bytes for every length around the 8-value stride
// and for the values whose bits are easiest to mangle.
func TestEncF64sMatchesPerValue(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	var cases [][]float64
	for n := 0; n <= 17; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)*1.25 - 3
		}
		cases = append(cases, v)
	}
	cases = append(cases, special)
	for _, v := range cases {
		bulk := NewEnc()
		bulk.U32(9) // an unaligned start
		bulk.F64s(v)
		each := NewEnc()
		each.U32(9)
		each.U64(uint64(len(v)))
		for _, f := range v {
			each.F64(f)
		}
		if !bytes.Equal(bulk.Buf(), each.Buf()) {
			t.Fatalf("F64s(%v) = %x, per value %x", v, bulk.Buf(), each.Buf())
		}
	}
}

// TestDictSectionsShareOneBuffer builds a dict from encoded sections and
// copied ones in a reused buffer: the image must equal one built by Put alone
// in a fresh buffer, a second dict in the same buffer must not grow it, and a
// dict written once must take more sections and write again.
func TestDictSectionsShareOneBuffer(t *testing.T) {
	put := NewDict(nil)
	put.Put("meta", []byte("m"))
	put.Put("weights", []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	put.Put("tail", nil)
	var want bytes.Buffer
	if err := Write(&want, put); err != nil {
		t.Fatal(err)
	}

	buf := NewEnc()
	build := func() *Dict {
		d := NewDict(buf)
		d.Section("meta").Bytes([]byte("m"))
		w := d.Section("weights")
		w.U64(0)
		w.Bytes([]byte{1, 2})
		d.Put("tail", nil)
		return d
	}
	for pass := 0; pass < 2; pass++ {
		before := cap(buf.Buf())
		var got bytes.Buffer
		if err := Write(&got, build()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("pass %d: image %x, want %x", pass, got.Bytes(), want.Bytes())
		}
		if pass > 0 && cap(buf.Buf()) != before {
			t.Fatalf("a same-sized image regrew the reused buffer from %d to %d bytes", before, cap(buf.Buf()))
		}
	}

	d := build()
	var first, second bytes.Buffer
	if err := Write(&first, d); err != nil {
		t.Fatal(err)
	}
	d.Section("late").U32(7)
	if err := Write(&second, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if names := back.Names(); len(names) != 4 || names[3] != "late" {
		t.Fatalf("sections after a write and one more section: %v", names)
	}
	if b, _ := back.Get("weights"); !bytes.Equal(b, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2}) {
		t.Fatalf("weights = %x", b)
	}
}

// TestReadRejectsDuplicateSections: a writer never repeats a section name,
// so a checksum-valid file that does is refused rather than half-applied.
func TestReadRejectsDuplicateSections(t *testing.T) {
	d := NewDict(nil)
	d.Put("a", []byte("one"))
	d.Put("b", []byte("two"))
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// The header is 12 bytes and section "a" 4+1+8+3; then comes "b"'s
	// name length and its one-byte name.
	img[12+(4+1+8+3)+4] = 'a'
	img = binary.LittleEndian.AppendUint32(img[:len(img)-crc32.Size], crc32.ChecksumIEEE(img[:len(img)-crc32.Size]))
	if _, err := Read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate section name: err = %v", err)
	}
}

func TestWriteDeterministic(t *testing.T) {
	d := NewDict(nil)
	d.Put("x", []byte{9, 8, 7})
	d.Put("y", []byte("state"))
	var a, b bytes.Buffer
	if err := Write(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same dict differ")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	d := NewDict(nil)
	d.Put("weights", bytes.Repeat([]byte{0xab}, 256))
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must be rejected — never a silent partial restore.
	for _, cut := range []int{0, 3, 11, 20, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestReadRejectsBitFlips(t *testing.T) {
	d := NewDict(nil)
	d.Put("weights", bytes.Repeat([]byte{0x5c}, 128))
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit at a spread of positions, including header and trailer.
	for _, pos := range []int{0, 5, 9, 15, 30, len(full) / 2, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x10
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
}

func TestReadRejectsWrongMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewDict(nil)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	wrongMagic := append([]byte(nil), full...)
	copy(wrongMagic, "NOPE")
	if _, err := Read(bytes.NewReader(wrongMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: err = %v", err)
	}

	wrongVer := append([]byte(nil), full...)
	wrongVer[4] = 99
	if _, err := Read(bytes.NewReader(wrongVer)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}
}

func TestAtomicWriteFileKeepsOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := AtomicWriteFile(path, func(f *os.File) error {
		f.Write([]byte("partial"))
		return os.ErrInvalid
	})
	if err == nil {
		t.Fatal("write callback error not propagated")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous" {
		t.Fatalf("previous content not preserved: %q, %v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp file leaked: %d entries in dir", len(entries))
	}
}

// writeFile writes d as a checkpoint file at path the way the engine does:
// Write inside AtomicWriteFile.
func writeFile(path string, d *Dict) error {
	return AtomicWriteFile(path, func(f *os.File) error { return Write(f, d) })
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, RoundFileName(3))
	d := NewDict(nil)
	d.Put("s", []byte("hello"))
	if err := writeFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := got.Get("s"); string(b) != "hello" {
		t.Fatalf("s = %q", b)
	}
}

func TestParseRoundFileName(t *testing.T) {
	if r, ok := ParseRoundFileName(RoundFileName(17)); !ok || r != 17 {
		t.Fatalf("ParseRoundFileName(RoundFileName(17)) = %d, %v", r, ok)
	}
	for _, bad := range []string{"ckpt-abc.fpkc", "other-000001.fpkc", "ckpt-000001.json", "ckpt-.fpkc", "ckpt-1.fpkc", "ckpt-+000001.fpkc"} {
		if _, ok := ParseRoundFileName(bad); ok {
			t.Fatalf("ParseRoundFileName(%q) accepted", bad)
		}
	}
}

func TestLatestValidFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	write := func(round int, payload string) string {
		p := filepath.Join(dir, RoundFileName(round))
		d := NewDict(nil)
		d.Put("payload", []byte(payload))
		if err := writeFile(p, d); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write(2, "old")
	write(5, "good")
	newest := write(9, "corrupt-me")

	// Corrupt the newest checkpoint in place.
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	path, d, warnings, err := LatestValid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != RoundFileName(5) {
		t.Fatalf("fell back to %s, want round-5 checkpoint", path)
	}
	if b, _ := d.Get("payload"); string(b) != "good" {
		t.Fatalf("payload = %q", b)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "corrupt") {
		t.Fatalf("warnings = %v, want one corruption warning", warnings)
	}
}

func TestLatestValidErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, _, err := LatestValid(dir); err == nil {
		t.Fatal("empty dir should error")
	}
	// A dir with only a corrupt checkpoint should error too.
	p := filepath.Join(dir, RoundFileName(1))
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, warnings, err := LatestValid(dir)
	if err == nil {
		t.Fatal("all-corrupt dir should error")
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}
