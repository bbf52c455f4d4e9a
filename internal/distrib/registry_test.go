package distrib

import (
	"testing"
)

func TestRegistryApplyPending(t *testing.T) {
	reg, err := NewRegistry(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("initial active = %v, want [0 1]", got)
	}

	// Double-register the same client id: idempotent, no transition counted.
	reg.QueueJoin(1)
	reg.QueueJoin(1)
	reg.QueueJoin(2)
	joins, leaves := reg.ApplyPending()
	if joins != 1 || leaves != 0 {
		t.Fatalf("joins, leaves = %d, %d; want 1, 0 (re-registering an active client transitions nothing)", joins, leaves)
	}
	if !reg.Has(2) || reg.Size() != 3 {
		t.Fatalf("after join: Has(2)=%v Size=%d, want true, 3", reg.Has(2), reg.Size())
	}

	// Leave an absent client and a present one.
	reg.QueueLeave(3)
	reg.QueueLeave(0)
	joins, leaves = reg.ApplyPending()
	if joins != 0 || leaves != 1 {
		t.Fatalf("joins, leaves = %d, %d; want 0, 1", joins, leaves)
	}
	if reg.Has(0) || reg.Size() != 2 {
		t.Fatalf("after leave: Has(0)=%v Size=%d, want false, 2", reg.Has(0), reg.Size())
	}

	// A hello and a goodbye queued in the same window resolve to "left".
	reg.QueueJoin(0)
	reg.QueueLeave(0)
	reg.ApplyPending()
	if reg.Has(0) {
		t.Fatal("join+leave in one window should resolve to left")
	}

	// Registrations are barrier-applied, never immediate.
	reg.QueueJoin(3)
	if reg.Has(3) {
		t.Fatal("QueueJoin must not register before ApplyPending")
	}

	// Out-of-range ids are ignored.
	reg.QueueJoin(99)
	reg.QueueLeave(-1)
	if j, l := reg.ApplyPending(); j != 1 || l != 0 {
		t.Fatalf("out-of-range queue leaked transitions: joins=%d leaves=%d", j, l)
	}
}

func TestNewRegistryRejectsOutOfRange(t *testing.T) {
	if _, err := NewRegistry(3, []int{0, 5}); err == nil {
		t.Fatal("want error for out-of-range initial population")
	}
	reg, err := NewRegistry(3, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Size() != 0 {
		t.Fatalf("empty non-nil initial population registered %d clients", reg.Size())
	}
}
