package energymis

// Dynamic-repair trace acceptance: the repair phase spans and per-round
// events streamed by the batch path must sum exactly to the engine's
// repair totals, and obs.CheckTrace must accept the file.

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/obs"
)

func TestDynamicTraceReproducesRepairTotals(t *testing.T) {
	for _, repair := range []RepairAlgo{RepairLuby, RepairGhaffari} {
		t.Run(repair.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dyn.jsonl")
			// A unit-disk graph: its clustering makes adjacent nodes lose
			// coverage together, so repairs exercise both multi-node region
			// components (engine election spans) and singleton decisions.
			g := RandomGeometric(400, RadiusForAvgDegree(400, 12), 3)
			d, err := NewDynamic(g, Algorithm1, DynamicOptions{
				Seed: 9, Repair: repair, Window: 16, TracePath: path, SelfCheck: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			flat := FlattenStream(ChurnStream(g, 40, 4, 21))
			if _, err := d.ApplyBatch(flat); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			st := d.Stats()

			tr, err := obs.ReadTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var awake, msgs, dropped, bits, viol int64
			var phaseRounds int
			names := map[string]int{}
			for _, rec := range tr.Records {
				switch rec.Type {
				case obs.RecRound:
					awake += rec.Awake
					msgs += rec.MsgsSent
					dropped += rec.MsgsDropped
					bits += rec.Bits
					viol += rec.Violations
				case obs.RecPhase:
					phaseRounds += rec.Rounds
					names[rec.Name]++
					if !strings.HasPrefix(rec.Name, "repair/") {
						t.Errorf("unexpected phase span %q", rec.Name)
					}
				}
			}
			if awake != st.AwakeTotal {
				t.Errorf("trace awake sum %d != Stats.AwakeTotal %d", awake, st.AwakeTotal)
			}
			if msgs != st.Messages {
				t.Errorf("trace msgs sum %d != Stats.Messages %d", msgs, st.Messages)
			}
			if dropped != st.MsgsDropped {
				t.Errorf("trace dropped sum %d != Stats.MsgsDropped %d", dropped, st.MsgsDropped)
			}
			if bits != st.Bits {
				t.Errorf("trace bits sum %d != Stats.Bits %d", bits, st.Bits)
			}
			if viol != st.Violations {
				t.Errorf("trace violations sum %d != Stats.Violations %d", viol, st.Violations)
			}
			if phaseRounds != int(st.Rounds) {
				t.Errorf("trace phase rounds sum %d != Stats.Rounds %d", phaseRounds, st.Rounds)
			}
			if names["repair/detect"] == 0 {
				t.Error("no repair/detect spans in trace")
			}
			elections := names["repair/luby"] + names["repair/ghaffari"] + names["repair/finisher"]
			if elections == 0 {
				t.Error("no election spans in trace")
			}
			if names["repair/singleton"] == 0 {
				t.Error("no singleton spans in trace")
			}
			if problems := obs.CheckTrace(tr); len(problems) != 0 {
				t.Errorf("CheckTrace: %v", problems)
			}
			sum := tr.Summary()
			if sum == nil {
				t.Fatal("trace has no summary record")
			}
			if sum.Rounds != int(st.Rounds) || sum.Awake != st.AwakeTotal || sum.MISSize != d.MISSize() {
				t.Errorf("summary record %+v does not match Stats", sum)
			}
		})
	}
}

// TestDynamicPipelineTraceSummary follows a windowed ApplyBatch through the
// trace pipeline (engine → JSONL file → obs.ReadTraceFile → Summary): the
// file must conserve under CheckTrace and its summary record must carry the
// engine's dynamic counters (components, max components, sweep words).
func TestDynamicPipelineTraceSummary(t *testing.T) {
	g := GNP(400, 10.0/400, 11)
	path := filepath.Join(t.TempDir(), "pipe.jsonl")
	d, err := NewDynamicFrom(g, GreedyMIS(g),
		DynamicOptions{Seed: 7, Window: 16, TracePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyBatch(FlattenStream(ChurnStream(g, 20, 16, 29))); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.CheckTrace(tr); len(problems) > 0 {
		t.Fatalf("trace conservation problems: %v", problems)
	}
	sum := tr.Summary()
	if sum == nil {
		t.Fatal("trace has no summary record")
	}
	st, perf := d.Stats(), d.Perf()
	if sum.Components != st.Components || sum.MaxComponents != st.MaxComponents {
		t.Errorf("summary components %d/%d, engine %d/%d",
			sum.Components, sum.MaxComponents, st.Components, st.MaxComponents)
	}
	if sum.SweepWords != perf.SweepWords {
		t.Errorf("summary sweep words %d, engine %d", sum.SweepWords, perf.SweepWords)
	}
	if sum.Components == 0 || sum.SweepWords == 0 {
		t.Errorf("dynamic summary fields not populated: %+v", sum)
	}
}

// TestDynamicWindowedValidity drives ApplyBatch through several window
// sizes over the same stream and requires a valid MIS after every call,
// plus identical final topology regardless of windowing.
func TestDynamicWindowedValidity(t *testing.T) {
	g := GNP(300, 9.0/300, 5)
	flat := FlattenStream(ChurnStream(g, 50, 4, 8))
	var wantEdges int
	for _, window := range []int{0, 1, 7, 64, 1000} {
		d, err := NewDynamicFrom(g, GreedyMIS(g), DynamicOptions{Seed: 4, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		for chunk := 0; chunk < len(flat); chunk += 25 {
			end := chunk + 25
			if end > len(flat) {
				end = len(flat)
			}
			if _, err := d.ApplyBatch(flat[chunk:end]); err != nil {
				t.Fatalf("window %d: %v", window, err)
			}
			if !d.IsValidMIS() {
				t.Fatalf("window %d: invalid MIS after chunk at %d: %v", window, chunk, d.Check())
			}
		}
		if wantEdges == 0 {
			wantEdges = d.M()
		} else if d.M() != wantEdges {
			t.Fatalf("window %d: final m=%d, want %d", window, d.M(), wantEdges)
		}
		st := d.Stats()
		if st.Updates != int64(len(flat)) {
			t.Fatalf("window %d: applied %d updates, want %d", window, st.Updates, len(flat))
		}
	}
}

// TestDynamicParallelTraceDeterministic replays the same traced workload
// twice on a unit-disk graph whose repairs split into several region
// components: component elections trace straight into the writer in
// component order, so both canonical traces (wall times stripped) must be
// byte-identical, and each must conserve under CheckTrace.
func TestDynamicParallelTraceDeterministic(t *testing.T) {
	g := RandomGeometric(500, RadiusForAvgDegree(500, 12), 11)
	flat := FlattenStream(ChurnStream(g, 60, 4, 13))
	trace := func() []byte {
		path := filepath.Join(t.TempDir(), "dyn.jsonl")
		d, err := NewDynamicFrom(g, GreedyMIS(g), DynamicOptions{
			Seed: 5, Window: 16, TracePath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyBatch(flat); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.MaxComponents < 2 {
			t.Fatalf("workload never split a region into components (max %d)", st.MaxComponents)
		}
		tr, err := obs.ReadTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if problems := obs.CheckTrace(tr); len(problems) != 0 {
			t.Errorf("CheckTrace: %v", problems)
		}
		b, err := obs.CanonicalBytes(obs.Canonical(tr))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(trace()) != string(trace()) {
		t.Error("canonical traces differ between identical replays")
	}
}
