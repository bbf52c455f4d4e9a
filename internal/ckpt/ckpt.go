// Package ckpt is the checkpoint codec of the repository: a small,
// self-describing, checksummed binary container of named sections, plus the
// crash-safe file I/O and checkpoint-directory management the run-state
// contract (DESIGN.md §6) is built on.
//
// A checkpoint file is:
//
//	magic "FPKC" | version u32 | sectionCount u32
//	per section: nameLen u32 | name | dataLen u64 | data
//	crc32 (IEEE) of everything above
//
// Section payloads are opaque bytes; the layers that own state (internal/nn
// models and optimizers, internal/proto prototype sets, the engine's round
// counter/history/ledger) encode themselves with Enc straight into the
// sections they own, so a checkpoint is built in one buffer. Every decoder,
// the container's own included, reads through Dec's sticky reads, takes
// element counts from Count, and checks Err once per section and before
// comparing a decoded value with anything.
// The container guarantees that a truncated or bit-flipped file is rejected
// as a whole — partial state can never be restored.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// Magic identifies a checkpoint container.
	Magic = "FPKC"
	// Version is the container format version.
	Version = 1
)

// Dict is an ordered collection of named sections, held as the container
// image a file holds: the header, then each section's name, data length and
// data. Order is preserved from Put and Section calls, so encoding is
// deterministic for a deterministic writer, and writing the dict is one
// Write of its image.
type Dict struct {
	img      *Enc
	sections []section
	index    map[string]int
	open     bool // the last section is still being filled through Section's encoder
	sealed   bool // img ends in the final section count and the CRC
}

// section locates one section's data in the image.
type section struct {
	name     string
	off, end int
}

// NewDict returns an empty dict whose image is built in buf, which is reset
// first. A writer that checkpoints repeatedly passes the same buf every time
// and so reuses one buffer, grown to the largest image and never shrunk; the
// previous dict built in buf must be done with by then. A nil buf gives the
// dict a buffer of its own.
func NewDict(buf *Enc) *Dict {
	if buf == nil {
		buf = NewEnc()
	}
	buf.buf = append(buf.buf[:0], Magic...)
	buf.U32(Version)
	buf.U32(0) // section count, set when the image is sealed
	return &Dict{img: buf, index: make(map[string]int)}
}

// Section appends a section named name and returns the encoder that fills
// it: the bytes appended through it until the next call on the dict are the
// section's data. Encoding straight into the image spares the copy Put
// makes. A name may be given to Section only once.
func (d *Dict) Section(name string) *Enc {
	d.edit()
	if _, ok := d.index[name]; ok {
		panic(fmt.Sprintf("ckpt: section %q appended twice", name))
	}
	d.img.String(name)
	d.img.U64(0) // data length, set when the section closes
	d.index[name] = len(d.sections)
	d.sections = append(d.sections, section{name: name, off: len(d.img.buf)})
	d.open = true
	return d.img
}

// Put stores a copy of data under name, replacing any previous value in
// place, so section order stays stable.
func (d *Dict) Put(name string, data []byte) {
	d.edit()
	i, ok := d.index[name]
	if !ok {
		d.Section(name).Bytes(data)
		return
	}
	s := &d.sections[i]
	delta := len(data) - (s.end - s.off)
	d.img.buf = slices.Replace(d.img.buf, s.off, s.end, data...)
	binary.LittleEndian.PutUint64(d.img.buf[s.off-8:], uint64(len(data)))
	s.end += delta
	for j := i + 1; j < len(d.sections); j++ {
		d.sections[j].off += delta
		d.sections[j].end += delta
	}
}

// edit readies the image for another section: the open one closes, and a
// sealed image drops its CRC.
func (d *Dict) edit() {
	d.close()
	if d.sealed {
		d.img.buf = d.img.buf[:len(d.img.buf)-crc32.Size]
		d.sealed = false
	}
}

// close ends the open section where the image ends and records its length.
func (d *Dict) close() {
	if !d.open {
		return
	}
	s := &d.sections[len(d.sections)-1]
	s.end = len(d.img.buf)
	binary.LittleEndian.PutUint64(d.img.buf[s.off-8:], uint64(s.end-s.off))
	d.open = false
}

// seal completes the image — closes the open section, records the section
// count and appends the CRC of everything before it — and returns it.
func (d *Dict) seal() []byte {
	if !d.sealed {
		d.close()
		binary.LittleEndian.PutUint32(d.img.buf[len(Magic)+4:], uint32(len(d.sections)))
		d.img.U32(crc32.ChecksumIEEE(d.img.buf))
		d.sealed = true
	}
	return d.img.buf
}

// Get returns the section data stored under name. It aliases the image and
// is valid until the next Put or Section.
func (d *Dict) Get(name string) ([]byte, bool) {
	i, ok := d.index[name]
	if !ok {
		return nil, false
	}
	d.close()
	s := d.sections[i]
	return d.img.buf[s.off:s.end:s.end], true
}

// MustGet is Get with a descriptive error for required sections.
func (d *Dict) MustGet(name string) ([]byte, error) {
	b, ok := d.Get(name)
	if !ok {
		return nil, fmt.Errorf("ckpt: checkpoint has no %q section (have %v)", name, d.Names())
	}
	return b, nil
}

// Names returns the section names in storage order.
func (d *Dict) Names() []string {
	names := make([]string, len(d.sections))
	for i, s := range d.sections {
		names[i] = s.name
	}
	return names
}

// Len returns the number of sections.
func (d *Dict) Len() int { return len(d.sections) }

// Write seals the dict's image — section count and trailing CRC — and writes
// it to w in one Write.
func Write(w io.Writer, d *Dict) error {
	if _, err := w.Write(d.seal()); err != nil {
		return fmt.Errorf("ckpt: write checkpoint: %w", err)
	}
	return nil
}

// Read parses a checkpoint from r. Magic, version and the CRC over
// everything before the trailer are checked before any section is decoded,
// so a truncated or corrupt checkpoint yields an error and no partial dict.
func Read(r io.Reader) (*Dict, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read checkpoint: %w", err)
	}
	return parse(b)
}

// parse is Read over a checkpoint in memory, decoded through one Dec. The
// dict's image is b itself, so its sections alias b.
func parse(b []byte) (*Dict, error) {
	body := b[:max(len(b)-crc32.Size, 0)]
	d := NewDec(body)
	magic, version := d.take(len(Magic)), d.U32()
	switch {
	case d.Err() != nil:
		return nil, fmt.Errorf("ckpt: read header (truncated checkpoint?): %w", d.Err())
	case string(magic) != Magic:
		return nil, fmt.Errorf("ckpt: bad magic %q, want %q", magic, Magic)
	case version != Version:
		return nil, fmt.Errorf("ckpt: unsupported checkpoint version %d (have %d)", version, Version)
	}
	if got, want := NewDec(b[len(body):]).U32(), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch: stored %08x, computed %08x (corrupt checkpoint)", got, want)
	}
	dict := &Dict{img: &Enc{buf: b}, index: make(map[string]int), sealed: true}
	// A section is at least its name length (4 bytes) and data size (8).
	for n := d.Count(4 + 8); n > 0; n-- {
		name := d.String()
		data := len(d.take(d.bound(d.U64(), 1)))
		if _, dup := dict.index[name]; dup && d.Err() == nil {
			d.Fail(fmt.Errorf("section %q appears twice", name))
		}
		dict.index[name] = len(dict.sections)
		dict.sections = append(dict.sections, section{name: name, off: d.off - data, end: d.off})
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail(fmt.Errorf("%d bytes after the last section", d.Remaining()))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: decode sections: %w", err)
	}
	return dict, nil
}
