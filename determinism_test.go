package energymis

// Determinism regression tests for the executors. Every run executes on
// one goroutine, so the only state that carries from one run to the next
// is a shared Mem: a run on a Mem already used on a different graph must
// be byte-identical to a run on fresh buffers. Also pins the public Luby
// to the struct-of-arrays automaton it runs, and the dynamic engine to an
// identical replay under churn.

import (
	"bytes"
	"testing"

	"github.com/energymis/energymis/internal/luby"
	"github.com/energymis/energymis/internal/sim"
)

func insetBytes(inSet []bool) []byte {
	b := make([]byte, len(inSet))
	for i, in := range inSet {
		if in {
			b[i] = 1
		}
	}
	return b
}

// usedMem returns a Mem that has already served a run of algo on a graph
// other than the ones the tests below measure.
func usedMem(t *testing.T, algo Algorithm) *Mem {
	t.Helper()
	mem := NewMem()
	other := BarabasiAlbert(700, 3, 19)
	if _, err := RunVerified(other, algo, Options{Seed: 8, Mem: mem}); err != nil {
		t.Fatalf("%v on the warm-up graph: %v", algo, err)
	}
	return mem
}

func TestStaticExecutorDeterminism(t *testing.T) {
	g := GNP(500, 10.0/500, 11)
	for _, algo := range []Algorithm{Luby, Algorithm1, Algorithm2} {
		ref, err := RunVerified(g, algo, Options{Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		res, err := RunVerified(g, algo, Options{Seed: 5, Mem: usedMem(t, algo)})
		if err != nil {
			t.Fatalf("%v on a used Mem: %v", algo, err)
		}
		if !bytes.Equal(insetBytes(res.InSet), insetBytes(ref.InSet)) {
			t.Fatalf("%v: MIS on a used Mem differs from fresh buffers", algo)
		}
		if res.Rounds != ref.Rounds || res.MaxAwake != ref.MaxAwake ||
			res.AvgAwake != ref.AvgAwake || res.AwakeTotal != ref.AwakeTotal ||
			res.Messages != ref.Messages || res.MessagesDropped != ref.MessagesDropped ||
			res.BitsTotal != ref.BitsTotal || res.BitsMax != ref.BitsMax {
			t.Fatalf("%v: counters differ\n fresh: %+v\n used:  %+v", algo, ref, res)
		}
		for v := range res.AwakePerNode {
			if res.AwakePerNode[v] != ref.AwakePerNode[v] {
				t.Fatalf("%v: awake[%d] = %d on a used Mem, %d fresh",
					algo, v, res.AwakePerNode[v], ref.AwakePerNode[v])
			}
		}
	}
}

// TestBatchVsLegacyLubyDeterminism pins energymis.Luby to the
// struct-of-arrays automaton luby.Run at the engine seed core derives for
// the run's one phase: same set, counters and per-node energy. The
// per-node side of the comparison lives in luby.TestBatchMatchesLegacy,
// which holds luby.Run on these graphs to its per-node specification.
func TestBatchVsLegacyLubyDeterminism(t *testing.T) {
	for _, n := range []int{300, 1000} {
		g := GNP(n, 10.0/float64(n), uint64(n)+17)
		ref, err := RunVerified(g, Luby, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		set, res, err := luby.Run(g, sim.Config{Seed: 9}.ForPhase(1))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(insetBytes(set), insetBytes(ref.InSet)) {
			t.Fatalf("n=%d: luby.Run's MIS differs from energymis.Luby's", n)
		}
		if res.Rounds != ref.Rounds || res.MsgsSent != ref.Messages ||
			res.MsgsDropped != ref.MessagesDropped || res.BitsTotal != ref.BitsTotal ||
			res.BitsMax != ref.BitsMax || res.Violations != ref.CongestViolations {
			t.Fatalf("n=%d: counters differ\n energymis.Luby: rounds=%d msgs=%d dropped=%d bits=%d max=%d violations=%d\n luby.Run:       %+v",
				n, ref.Rounds, ref.Messages, ref.MessagesDropped, ref.BitsTotal, ref.BitsMax, ref.CongestViolations, res)
		}
		for v := range res.Awake {
			if int64(res.Awake[v]) != ref.AwakePerNode[v] {
				t.Fatalf("n=%d: awake[%d] = %d, energymis.Luby %d", n, v, res.Awake[v], ref.AwakePerNode[v])
			}
		}
	}
}

// TestDynamicExecutorDeterminism replays the same churn twice, with
// repairs that split into several region components, and requires the
// same maintained set and the same Stats.
func TestDynamicExecutorDeterminism(t *testing.T) {
	g := GNP(400, 8.0/400, 7)
	trace := ChurnStream(g, 60, 2, 13)
	replay := func() ([]byte, DynamicStats) {
		d, err := NewDynamic(g, Luby, DynamicOptions{Seed: 3, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range trace {
			if _, err := d.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		return insetBytes(d.InSet()), d.Stats()
	}
	refSet, ref := replay()
	if ref.MaxComponents < 2 {
		t.Fatalf("workload never split a region into components (max %d)", ref.MaxComponents)
	}
	set, st := replay()
	if !bytes.Equal(set, refSet) {
		t.Fatal("maintained MIS differs between identical replays")
	}
	if st != ref {
		t.Fatalf("stats differ between identical replays\n first:  %+v\n second: %+v", ref, st)
	}
}
