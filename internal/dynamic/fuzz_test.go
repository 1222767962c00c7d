package dynamic_test

import (
	"bytes"
	"testing"

	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/rng"
)

// decodeOp turns three fuzz bytes into one update against e's state at
// the start of the window. Node picks range over every slot plus one past
// the end, so they also name dead nodes and the next slot (a node
// inserted earlier in the window, or none); with self-loops and three
// kinds in 64 that are invalid on purpose, some updates are rejected,
// which ends their window.
func decodeOp(e *dynamic.Engine, b []byte) dynamic.Update {
	span := e.N() + 1
	u, v := int(b[1])%span, int(b[2])%span
	switch b[0] % 8 {
	case 0, 1, 2: // edge toggle
		if e.HasEdge(u, v) {
			return dynamic.DelEdge(u, v)
		}
		return dynamic.InsEdge(u, v)
	case 3: // node insert with up to four neighbors
		nbs := []int{u, v, (u + v) % span, (u * v) % span}
		return dynamic.InsNode(nbs[:int(b[0]>>3)%5]...)
	case 4:
		return dynamic.DelNode(u)
	case 5: // remove an existing edge
		if row := e.Neighbors(u); len(row) > 0 {
			return dynamic.DelEdge(u, int(row[v%len(row)]))
		}
		return dynamic.DelEdge(u, v)
	case 6: // insert, possibly an edge already there
		return dynamic.InsEdge(u, v)
	default: // invalid on purpose three times in eight
		switch (b[0] >> 3) % 8 {
		case 0:
			return dynamic.Update{Op: dynamic.Op(9)}
		case 1:
			return dynamic.InsEdge(u, -1-v)
		case 2:
			return dynamic.DelEdge(u, u)
		default:
			return dynamic.InsEdge(u, v)
		}
	}
}

// fuzzOps derives a seed-corpus op string.
func fuzzOps(seed uint64, n int) []byte {
	r := rng.New(seed)
	out := make([]byte, 3*n)
	for i := range out {
		out[i] = byte(r.Intn(256))
	}
	return out
}

// FuzzApplyOracles drives the engine with fuzzed graphs, windows, repair
// protocols and update streams, valid or not, and holds every Apply to
// the oracles (a)–(d) of oracle_test.go. At the end, a trace of the whole
// run, written in memory with the engine's lifetime totals as its
// summary, must pass obs.CheckTrace's conservation checks.
func FuzzApplyOracles(f *testing.F) {
	f.Add(uint8(0), uint8(80), uint64(1), uint8(3), uint8(0), fuzzOps(1, 96))
	f.Add(uint8(1), uint8(119), uint64(2), uint8(15), uint8(1), fuzzOps(2, 128))
	f.Add(uint8(2), uint8(40), uint64(3), uint8(0), uint8(0), fuzzOps(3, 64))
	f.Add(uint8(1), uint8(60), uint64(4), uint8(7), uint8(0), fuzzOps(4, 128))
	f.Add(uint8(0), uint8(5), uint64(5), uint8(1), uint8(1), fuzzOps(5, 32))
	// Hub attack: the first nodes of a BA graph are its hubs.
	hubs := []byte{4, 0, 0, 4, 1, 0, 4, 2, 0, 3 | 4<<3, 3, 5, 4, 3, 0, 4, 4, 0}
	f.Add(uint8(1), uint8(99), uint64(6), uint8(2), uint8(1), append(hubs, fuzzOps(6, 64)...))
	f.Fuzz(func(t *testing.T, family, size uint8, seed uint64, window, repair uint8, ops []byte) {
		n := 1 + int(size)%120
		var g *graph.Graph
		switch family % 3 {
		case 0:
			g = graph.GNP(n, 6/float64(n), seed)
		case 1:
			g = graph.BarabasiAlbert(n, 3, seed)
		default:
			g = graph.Path(n)
		}
		var buf bytes.Buffer
		tw := obs.NewTraceWriter(&buf, map[string]string{"mode": "dynamic"})
		c := newChecked(t, g, dynamic.Params{
			Seed:   seed,
			Repair: dynamic.RepairAlgo(1 + repair%2),
			Tracer: tw,
		})
		w := 1 + int(window)%16
		ops = ops[:min(len(ops), 3*256)]
		for len(ops) >= 3 {
			batch := make([]dynamic.Update, 0, w)
			for len(batch) < w && len(ops) >= 3 {
				batch = append(batch, decodeOp(c.e, ops[:3]))
				ops = ops[3:]
			}
			c.apply(t, batch) // a rejected update ends its window, not the run
		}

		st := c.e.Stats()
		tw.Summary(obs.SummaryStats{
			Rounds:      int(st.Rounds),
			AwakeTotal:  st.AwakeTotal,
			MsgsSent:    st.Messages,
			MsgsDropped: st.MsgsDropped,
			BitsTotal:   st.Bits,
			BitsMax:     st.BitsMax,
			Violations:  st.Violations,
		})
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if problems := obs.CheckTrace(tr); len(problems) > 0 {
			t.Fatalf("trace does not conserve: %v", problems)
		}
	})
}
