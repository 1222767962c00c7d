package energymis

// Run-trace integration tests: every algorithm's JSONL trace must be
// internally consistent (the streamed per-round counter deltas sum exactly
// to the Result's deterministic totals — obs.CheckTrace), and traces must
// be deterministic: same (graph, algorithm, seed) gives a byte-identical
// trace modulo wall-time fields, on fresh or on already-used buffers.

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/obs"
)

func runTraced(t *testing.T, g *Graph, algo Algorithm, seed uint64, mem *Mem) (*Result, *obs.Trace) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	res, err := Run(g, algo, Options{Seed: seed, Mem: mem, TracePath: path})
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	tr, err := obs.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res, tr
}

// TestTraceReproducesResultTotals is the acceptance check of the tracing
// layer: for every algorithm, the trace's summed round records equal the
// run's Result totals field by field, and obs.CheckTrace agrees. On the
// dense input Algorithm 2's degree reduction runs two iterations, so a
// second iteration's phase record is held to the rounds it closes.
func TestTraceReproducesResultTotals(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *Graph
		span string // a span Algorithm 2's trace must hold, if any
	}{
		{"gnp600", GNP(600, 9.0/600, 7), ""},
		{"gnp1500-dense", GNP(1500, 0.6, 7), "phase-i.1"},
	} {
		t.Run(in.name, func(t *testing.T) {
			for _, algo := range Algorithms() {
				res, tr := runTraced(t, in.g, algo, 3, nil)

				var awake, msgs, dropped, bits, viol int64
				var phaseRounds int
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
					}
				}
				if awake != res.AwakeTotal {
					t.Errorf("%s: trace awake sum %d != Result.AwakeTotal %d", algo, awake, res.AwakeTotal)
				}
				if msgs != res.Messages {
					t.Errorf("%s: trace msgs sum %d != Result.Messages %d", algo, msgs, res.Messages)
				}
				if dropped != res.MessagesDropped {
					t.Errorf("%s: trace dropped sum %d != Result.MessagesDropped %d", algo, dropped, res.MessagesDropped)
				}
				if bits != res.BitsTotal {
					t.Errorf("%s: trace bits sum %d != Result.BitsTotal %d", algo, bits, res.BitsTotal)
				}
				if viol != res.CongestViolations {
					t.Errorf("%s: trace violations sum %d != Result.CongestViolations %d", algo, viol, res.CongestViolations)
				}
				if phaseRounds != res.Rounds {
					t.Errorf("%s: trace phase rounds sum %d != Result.Rounds %d", algo, phaseRounds, res.Rounds)
				}
				sum := tr.Summary()
				if sum == nil {
					t.Fatalf("%s: trace has no summary record", algo)
				}
				if sum.Awake != res.AwakeTotal || sum.Rounds != res.Rounds ||
					sum.MaxAwake != res.MaxAwake || sum.MISSize != res.MISSize() {
					t.Errorf("%s: summary record %+v does not match Result", algo, sum)
				}
				if problems := obs.CheckTrace(tr); len(problems) != 0 {
					t.Errorf("%s: CheckTrace: %v", algo, problems)
				}
				// The trace must also describe one phase span per reported phase.
				var phases int
				for _, rec := range tr.Records {
					if rec.Type == obs.RecPhase {
						phases++
					}
				}
				if phases != len(res.Phases) {
					t.Errorf("%s: %d phase records, Result has %d phases", algo, phases, len(res.Phases))
				}
				if algo == Algorithm2 && in.span != "" &&
					!slices.ContainsFunc(res.Phases, func(p PhaseStats) bool { return p.Name == in.span }) {
					t.Errorf("%s: no %s span", algo, in.span)
				}
			}
		})
	}
}

// TestTraceDeterminism: the same seed and config produce byte-identical
// traces (modulo wall-time fields) on fresh buffers and on a Mem already
// used on a different graph — the only state a run can inherit.
func TestTraceDeterminism(t *testing.T) {
	g := GNP(500, 10.0/500, 11)
	for _, algo := range []Algorithm{Luby, Algorithm1, Algorithm2Avg} {
		var want []byte
		for _, mem := range []*Mem{nil, usedMem(t, algo)} {
			_, tr := runTraced(t, g, algo, 5, mem)
			got, err := obs.CanonicalBytes(obs.Canonical(tr))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("%s: canonical trace on a used Mem differs from fresh buffers", algo)
			}
		}
	}
}
