package engine

import (
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/proto"
	"fedpkd/internal/tensor"
)

func TestFillDefaults(t *testing.T) {
	c := Config{}
	if err := c.FillDefaults(); err == nil {
		t.Error("missing Env should error")
	}
	// Defaults apply even when validation fails, so config inspection works
	// without an environment.
	if c.BatchSize != 32 || c.LR != 0.001 {
		t.Errorf("defaults = %d/%v, want 32/0.001", c.BatchSize, c.LR)
	}
}

func TestFillDefaultsValidatesParticipation(t *testing.T) {
	env := &fl.Env{} // non-nil is enough: participation checks read no Env fields
	for _, c := range []Config{
		{Env: env, ClientFraction: 1.5},
		{Env: env, ClientFraction: -0.1},
		{Env: env, ClientDropProb: 1},
		{Env: env, ClientDropProb: -0.5},
	} {
		c := c
		if err := c.FillDefaults(); err == nil {
			t.Errorf("config %+v should error", c)
		}
	}
	ok := Config{Env: env, ClientFraction: 0.5, ClientDropProb: 0.25}
	if err := ok.FillDefaults(); err != nil {
		t.Errorf("valid participation config rejected: %v", err)
	}
}

func TestWireBytes(t *testing.T) {
	if n := (*Payload)(nil).WireBytes(); n != 0 {
		t.Errorf("nil payload = %d bytes", n)
	}
	logits := tensor.New(4, 10)
	ps := proto.NewSet(3, 8)
	cases := []struct {
		name string
		p    *Payload
		want int
	}{
		{"logits", &Payload{Logits: logits}, comm.LogitsBytes(4, 10)},
		{"local logits are free", &Payload{Logits: logits, LogitsLocal: true}, 0},
		{"indices", &Payload{Indices: []int{1, 2, 3}}, comm.SampleIndexBytes(3)},
		{"protos", &Payload{Protos: ps}, ps.Len() * ps.Dim * comm.BytesPerValue},
		{"params", &Payload{Params: make([]float64, 7)}, comm.ModelBytes(7)},
		{"counted params", &Payload{ParamsCounted: 7}, comm.ModelBytes(7)},
		{"params win over counted", &Payload{Params: make([]float64, 7), ParamsCounted: 99}, comm.ModelBytes(7)},
		{"metadata is free", &Payload{NumSamples: 123}, 0},
		{"composite", &Payload{Logits: logits, Indices: []int{0, 1}, Protos: ps},
			comm.LogitsBytes(4, 10) + comm.SampleIndexBytes(2) + ps.Len()*ps.Dim*comm.BytesPerValue},
	}
	for _, tc := range cases {
		if got := tc.p.WireBytes(); got != tc.want {
			t.Errorf("%s: WireBytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
