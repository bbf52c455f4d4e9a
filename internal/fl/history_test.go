package fl

import (
	"strings"
	"testing"
)

func sampleHistory() *History {
	h := &History{Algo: "FedPKD", Dataset: "SynthC10", Setting: "iid"}
	h.Add(RoundMetrics{Round: 0, ServerAcc: 0.3, ClientAcc: 0.4, CumulativeMB: 1})
	h.Add(RoundMetrics{Round: 1, ServerAcc: 0.6, ClientAcc: 0.5, CumulativeMB: 2})
	h.Add(RoundMetrics{Round: 2, ServerAcc: 0.55, ClientAcc: 0.65, CumulativeMB: 3})
	return h
}

func TestHistoryFinals(t *testing.T) {
	h := sampleHistory()
	if h.FinalServerAcc() != 0.55 || h.FinalClientAcc() != 0.65 {
		t.Errorf("finals = %v, %v", h.FinalServerAcc(), h.FinalClientAcc())
	}
	if h.TotalMB() != 3 {
		t.Errorf("TotalMB = %v", h.TotalMB())
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHistoryEmpty(t *testing.T) {
	h := &History{}
	if h.FinalServerAcc() != -1 || h.FinalClientAcc() != -1 {
		t.Error("empty history finals must be -1")
	}
	if h.TotalMB() != 0 {
		t.Error("empty history TotalMB must be 0")
	}
	if _, ok := h.MBToServerAcc(0.1); ok {
		t.Error("empty history can reach no target")
	}
}

func TestMBToAccuracy(t *testing.T) {
	h := sampleHistory()
	mb, ok := h.MBToServerAcc(0.6)
	if !ok || mb != 2 {
		t.Errorf("MBToServerAcc(0.6) = %v, %v", mb, ok)
	}
	if _, ok := h.MBToServerAcc(0.9); ok {
		t.Error("unreached target must report false")
	}
	mb, ok = h.MBToClientAcc(0.5)
	if !ok || mb != 2 {
		t.Errorf("MBToClientAcc(0.5) = %v, %v", mb, ok)
	}
}

func TestHistoryString(t *testing.T) {
	s := sampleHistory().String()
	for _, want := range []string{"FedPKD", "SynthC10", "3 rounds"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
