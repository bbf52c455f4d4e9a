// Package ckpt is the checkpoint codec of the repository: a small,
// self-describing, checksummed binary container of named sections, plus the
// crash-safe file I/O and checkpoint-directory management the run-state
// contract (DESIGN.md §8) is built on.
//
// A checkpoint file is:
//
//	magic "FPKC" | version u32 | sectionCount u32
//	per section: nameLen u32 | name | dataLen u64 | data
//	crc32 (IEEE) of everything above
//
// Section payloads are opaque bytes; the layers that own state (internal/nn
// models and optimizers, internal/proto prototype sets, the engine's round
// counter/history/ledger) encode themselves with the Enc/Dec helpers and
// store the result under names they own. The container guarantees that a
// truncated or bit-flipped file is rejected as a whole — partial state can
// never be restored.
package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic identifies a checkpoint container.
	Magic = "FPKC"
	// Version is the container format version.
	Version = 1

	// maxSectionName bounds section-name length so a corrupt header cannot
	// drive a huge allocation before the CRC is ever checked.
	maxSectionName = 4096
)

// Section is one named state blob inside a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Dict is an ordered collection of named sections. Order is preserved from
// Put calls, so encoding is deterministic for a deterministic writer.
type Dict struct {
	sections []Section
	index    map[string]int
}

// NewDict returns an empty dict.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int)}
}

// Put stores data under name, replacing any previous value (in place, so
// section order stays stable).
func (d *Dict) Put(name string, data []byte) {
	if i, ok := d.index[name]; ok {
		d.sections[i].Data = data
		return
	}
	d.index[name] = len(d.sections)
	d.sections = append(d.sections, Section{Name: name, Data: data})
}

// Get returns the section data stored under name.
func (d *Dict) Get(name string) ([]byte, bool) {
	i, ok := d.index[name]
	if !ok {
		return nil, false
	}
	return d.sections[i].Data, true
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
		names[i] = s.Name
	}
	return names
}

// Len returns the number of sections.
func (d *Dict) Len() int { return len(d.sections) }

// Write serializes the dict to w with a trailing CRC.
func Write(w io.Writer, d *Dict) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	e := NewEnc()
	e.Bytes([]byte(Magic))
	e.U32(Version)
	e.U32(uint32(len(d.sections)))
	if _, err := mw.Write(e.Buf()); err != nil {
		return fmt.Errorf("ckpt: write header: %w", err)
	}
	for _, s := range d.sections {
		e := NewEnc()
		e.String(s.Name)
		e.U64(uint64(len(s.Data)))
		if _, err := mw.Write(e.Buf()); err != nil {
			return fmt.Errorf("ckpt: write section %q header: %w", s.Name, err)
		}
		if _, err := mw.Write(s.Data); err != nil {
			return fmt.Errorf("ckpt: write section %q: %w", s.Name, err)
		}
	}
	tail := NewEnc()
	tail.U32(crc.Sum32())
	if _, err := w.Write(tail.Buf()); err != nil {
		return fmt.Errorf("ckpt: write checksum: %w", err)
	}
	return nil
}

// Read parses a checkpoint from r, verifying magic, version, and CRC. Any
// truncation or corruption yields an error and no partial dict.
func Read(r io.Reader) (*Dict, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	head := make([]byte, 4+4+4)
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, fmt.Errorf("ckpt: read header (truncated checkpoint?): %w", err)
	}
	hd := NewDec(head)
	magic, _ := hd.BytesN(4)
	if string(magic) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q, want %q", magic, Magic)
	}
	version, _ := hd.U32()
	if version != Version {
		return nil, fmt.Errorf("ckpt: unsupported checkpoint version %d (have %d)", version, Version)
	}
	count, _ := hd.U32()

	d := NewDict()
	for i := uint32(0); i < count; i++ {
		var lenBuf [4]byte
		if _, err := io.ReadFull(tr, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("ckpt: read section %d name length: %w", i, err)
		}
		nameLen := NewDec(lenBuf[:]).mustU32()
		if nameLen > maxSectionName {
			return nil, fmt.Errorf("ckpt: implausible section name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(tr, name); err != nil {
			return nil, fmt.Errorf("ckpt: read section %d name: %w", i, err)
		}
		var sizeBuf [8]byte
		if _, err := io.ReadFull(tr, sizeBuf[:]); err != nil {
			return nil, fmt.Errorf("ckpt: read section %q size: %w", name, err)
		}
		size := NewDec(sizeBuf[:]).mustU64()
		// Copy rather than pre-allocate: a bit-flipped size field must fail
		// with a truncation error, not drive a multi-GB allocation.
		var data bytes.Buffer
		if _, err := io.CopyN(&data, tr, int64(size)); err != nil {
			return nil, fmt.Errorf("ckpt: read section %q (%d bytes): %w", name, size, err)
		}
		d.Put(string(name), data.Bytes())
	}
	want := crc.Sum32()
	var sumBuf [4]byte
	if _, err := io.ReadFull(r, sumBuf[:]); err != nil {
		return nil, fmt.Errorf("ckpt: read checksum: %w", err)
	}
	got := NewDec(sumBuf[:]).mustU32()
	if got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch: stored %08x, computed %08x (corrupt checkpoint)", got, want)
	}
	return d, nil
}
