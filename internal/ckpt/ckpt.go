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
// counter/history/ledger) encode themselves with Enc and store the result
// under names they own. Every decoder, the container's own included, reads
// through Dec's sticky reads, takes element counts from Count, and checks
// Err once per section and before comparing a decoded value with anything.
// The container guarantees that a truncated or bit-flipped file is rejected
// as a whole — partial state can never be restored.
package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic identifies a checkpoint container.
	Magic = "FPKC"
	// Version is the container format version.
	Version = 1
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

// parse is Read over a checkpoint in memory, decoded through one Dec; the
// sections' data alias b.
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
	dict := NewDict()
	// A section is at least its name length (4 bytes) and data size (8).
	for n := d.Count(4 + 8); n > 0; n-- {
		name := d.String()
		dict.Put(name, d.take(d.bound(d.U64(), 1)))
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail(fmt.Errorf("%d bytes after the last section", d.Remaining()))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: decode sections: %w", err)
	}
	return dict, nil
}
