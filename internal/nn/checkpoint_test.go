package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// A model checkpoint is one SnapshotModelSection in a ckpt container: the
// path every algorithm's Snapshot/Restore hooks take.

func checkpointNet(seed uint64) *Network {
	rng := stats.NewRNG(seed)
	body := NewSequential(NewDense(rng, 4, 8), NewBatchNorm(8), NewReLU())
	head := NewSequential(NewDense(rng, 8, 3))
	return NewNetwork("ckpt", body, head)
}

// saveModel encodes net as the "model" section of a checkpoint container.
func saveModel(t *testing.T, net *Network) []byte {
	t.Helper()
	d := ckpt.NewDict(nil)
	SnapshotModelSection(d, "model", net, nil)
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadModel restores net from a container written by saveModel.
func loadModel(b []byte, net *Network) error {
	d, err := ckpt.Read(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return RestoreModelSection(d, "model", net, nil)
}

func TestCheckpointRoundtrip(t *testing.T) {
	src := checkpointNet(1)
	dst := checkpointNet(2)
	rng := stats.NewRNG(3)
	x := tensor.Randn(rng, 5, 4, 1)

	if src.Logits(x).Equal(dst.Logits(x), 1e-9) {
		t.Fatal("differently seeded nets should differ")
	}
	if err := loadModel(saveModel(t, src), dst); err != nil {
		t.Fatal(err)
	}
	if !src.Logits(x).Equal(dst.Logits(x), 0) {
		t.Error("checkpoint roundtrip changed outputs")
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	src := checkpointNet(4)
	dst := checkpointNet(5)
	path := filepath.Join(t.TempDir(), ckpt.RoundFileName(1))
	d := ckpt.NewDict(nil)
	SnapshotModelSection(d, "model", src, nil)
	if err := ckpt.AtomicWriteFile(path, func(f *os.File) error { return ckpt.Write(f, d) }); err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreModelSection(got, "model", dst, nil); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	x := tensor.Randn(rng, 3, 4, 1)
	if !src.Logits(x).Equal(dst.Logits(x), 0) {
		t.Error("file roundtrip changed outputs")
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	data := saveModel(t, checkpointNet(7))
	data[len(data)/2] ^= 0xFF // flip a payload byte
	if err := loadModel(data, checkpointNet(8)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted checkpoint: err = %v, want a checksum mismatch", err)
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	data := saveModel(t, checkpointNet(9))
	rng := stats.NewRNG(10)
	other := NewNetwork("wide", NewSequential(NewDense(rng, 4, 9)), NewSequential(NewDense(rng, 9, 3)))
	if err := loadModel(data, other); err == nil {
		t.Error("mismatched model must be rejected")
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	data := saveModel(t, checkpointNet(1))
	copy(data, "NOPE")
	if err := loadModel(data, checkpointNet(1)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

// TestCheckpointParamCountMismatch restores into a model with a layer the
// checkpoint never saw: the missing entry is refused by name.
func TestCheckpointParamCountMismatch(t *testing.T) {
	data := saveModel(t, checkpointNet(11))
	net := checkpointNet(11)
	bigger := NewNetwork(net.Name, net.Body, NewSequential(append(net.Head.Layers, NewDense(stats.NewRNG(12), 3, 3))...))
	if err := loadModel(data, bigger); err == nil || !strings.Contains(err.Error(), "net.head.1") {
		t.Errorf("param-count mismatch: err = %v, want the missing entry named", err)
	}
}

func TestLoadParamsFileMissing(t *testing.T) {
	if _, err := ckpt.ReadFile(filepath.Join(t.TempDir(), "nope.fpkc")); err == nil {
		t.Error("missing file must error")
	}
}
