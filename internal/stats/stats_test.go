package stats

import (
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/sim"
)

func TestAccumulatorComposesPhases(t *testing.T) {
	a := NewAccumulator(4)
	a.AddPhase("p1", &sim.Result{
		Rounds:   10,
		Awake:    []int32{3, 0, 2, 1},
		MsgsSent: 7,
		BitsMax:  8,
	}, nil)
	// Phase 2 ran on a subgraph of nodes {0, 2} with local IDs {0, 1}.
	a.AddPhase("p2", &sim.Result{
		Rounds:   5,
		Awake:    []int32{4, 1},
		MsgsSent: 3,
		BitsMax:  16,
	}, []int32{0, 2})

	s := a.Summarize()
	if s.Rounds != 15 {
		t.Fatalf("Rounds = %d, want 15", s.Rounds)
	}
	if s.MaxAwake != 7 { // node 0: 3+4
		t.Fatalf("MaxAwake = %d, want 7", s.MaxAwake)
	}
	wantAvg := float64(3+4+0+2+1+1) / 4
	if s.AvgAwake != wantAvg {
		t.Fatalf("AvgAwake = %v, want %v", s.AvgAwake, wantAvg)
	}
	if s.MsgsSent != 10 || s.BitsMax != 16 {
		t.Fatalf("msgs=%d bitsMax=%d", s.MsgsSent, s.BitsMax)
	}
	per := a.AwakePerNode()
	if per[0] != 7 || per[1] != 0 || per[2] != 3 || per[3] != 1 {
		t.Fatalf("per-node = %v", per)
	}
}

func TestAddFlat(t *testing.T) {
	a := NewAccumulator(10)
	a.AddFlat("sync", 2, []int32{1, 5})
	s := a.Summarize()
	if s.Rounds != 2 || s.MaxAwake != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if got := a.AwakePerNode()[5]; got != 2 {
		t.Fatalf("node 5 awake = %d", got)
	}
	if got := a.AwakePerNode()[0]; got != 0 {
		t.Fatalf("node 0 awake = %d", got)
	}
}

func TestNoteRetries(t *testing.T) {
	a := NewAccumulator(1)
	a.AddPhase("p", &sim.Result{Rounds: 1, Awake: []int32{1}}, nil)
	a.NoteRetries(3)
	if got := a.Summarize().Retries; got != 3 {
		t.Fatalf("Retries = %d", got)
	}
}

func TestP99(t *testing.T) {
	a := NewAccumulator(100)
	awake := make([]int32, 100)
	for i := range awake {
		awake[i] = int32(i)
	}
	a.AddPhase("p", &sim.Result{Rounds: 1, Awake: awake}, nil)
	s := a.Summarize()
	if s.P99Awake != 98 {
		t.Fatalf("P99Awake = %d", s.P99Awake)
	}
	if s.MaxAwake != 99 {
		t.Fatalf("MaxAwake = %d", s.MaxAwake)
	}
}

func TestSummaryString(t *testing.T) {
	a := NewAccumulator(2)
	a.AddPhase("phase-i", &sim.Result{Rounds: 3, Awake: []int32{1, 2}, Violations: 1}, nil)
	str := a.Summarize().String()
	for _, want := range []string{"n=2", "rounds=3", "phase-i", "CONGEST-VIOLATIONS=1"} {
		if !strings.Contains(str, want) {
			t.Fatalf("summary %q missing %q", str, want)
		}
	}
}

func TestEmptyAccumulator(t *testing.T) {
	a := NewAccumulator(0)
	a.AddPhase("p", &sim.Result{Rounds: 2}, nil)
	a.AddFlat("sync", 1, nil)
	s := a.Summarize()
	if s.Rounds != 3 || s.MaxAwake != 0 || s.AvgAwake != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	for _, p := range s.Phases {
		if p.AvgAwake != 0 {
			t.Fatalf("phase %s on the empty network: AvgAwake = %v, want 0", p.Name, p.AvgAwake)
		}
	}
}
