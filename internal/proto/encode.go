package proto

import (
	"fmt"
	"sort"

	"fedpkd/internal/ckpt"
)

// Encode appends the set to e deterministically: classes are written in
// ascending order regardless of map iteration order, so identical sets
// always produce identical bytes — the property the engine's resume-
// equivalence goldens rely on. The cost follows the prototypes held, not
// Classes.
func (s *Set) Encode(e *ckpt.Enc) {
	classes := make([]int, 0, len(s.Vectors))
	for class := range s.Vectors {
		classes = append(classes, class)
	}
	sort.Ints(classes)
	e.U32(uint32(s.Classes))
	e.U32(uint32(s.Dim))
	e.U32(uint32(len(classes)))
	for _, class := range classes {
		e.U32(uint32(class))
		e.I64(int64(s.Counts[class]))
		e.F64s(s.Vectors[class])
	}
}

// DecodeSet parses a set from its Encode form.
func DecodeSet(b []byte) (*Set, error) {
	d := ckpt.NewDec(b)
	s := NewSet(int(d.U32()), int(d.U32()))
	// An entry is its class (4 bytes), count (8) and vector length prefix (8).
	for n := d.Count(4 + 8 + 8); n > 0; n-- {
		class, count, vec := int(d.U32()), int(d.I64()), d.F64s()
		switch {
		case class >= s.Classes:
			d.Fail(fmt.Errorf("prototype class %d out of range (%d classes)", class, s.Classes))
		case len(vec) != s.Dim:
			d.Fail(fmt.Errorf("class %d vector has %d dims, set expects %d", class, len(vec), s.Dim))
		}
		s.Vectors[class] = vec
		s.Counts[class] = count
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("proto: decode set: %w", err)
	}
	return s, nil
}
