package phase3

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestOutcomesPinned holds Run to exact outcomes recorded from the
// phase's earlier implementation, whose finisher carried each vector as
// two words: per input, mode, K and seed, the undecided count, the most
// finisher attempts, the rounds, the messages sent, and an FNV-64a hash of
// the set, the undecided nodes, every node's awake rounds and every other
// counter. The inputs cover retries and leftovers (GNP(300, 4/300) with
// the finisher's rounds cut, as in TestFinisherNeedsParallelExecutions),
// ModeAlg1's broken merge (path70 and cycle60: every node undecided),
// cliques, a tree and a 2,000-node GNP, at the default K, K = 1 and the
// largest K = 64. ROADMAP item 1(a)'s layout fix changes the broken-merge
// rows on purpose (and with them every round count); a change that is
// meant to keep Phase III's behaviour must keep every row.
func TestOutcomesPinned(t *testing.T) {
	gnp300 := graph.GNP(300, 4.0/300, 9)
	inputs := []struct {
		name   string
		g      *graph.Graph
		stress bool // GhaffariC 1, GhaffariFloor 1, Attempts 4
	}{
		{"gnp300", gnp300, false},
		{"gnp300-cut", gnp300, true},
		{"path70", graph.Path(70), false},
		{"cycle60", graph.Cycle(60), false},
		{"cliquechain", graph.CliqueChain(8, 6), false},
		{"tree200", graph.RandomTree(200, 5), false},
		{"gnp2000", graph.GNP(2000, 5.0/2000, 11), false},
	}
	modes := []Mode{ModeAlg1, ModeAlg2}
	ks := []int{0, 1, 64}
	const seeds = 2
	want := map[string]string{} // row key -> row
	for _, row := range pinnedOutcomes {
		key, _, _ := strings.Cut(row, " ")
		want[key] = row
	}
	if len(want) != len(inputs)*len(modes)*len(ks)*seeds {
		t.Fatalf("%d pinned rows, want %d", len(want), len(inputs)*len(modes)*len(ks)*seeds)
	}
	for _, in := range inputs {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/alg%d", in.name, mode), func(t *testing.T) {
				t.Parallel()
				for _, k := range ks {
					p := DefaultParams()
					p.K = k
					if in.stress {
						p.GhaffariC, p.GhaffariFloor, p.Attempts = 1, 1, 4
					}
					for seed := uint64(1); seed <= seeds; seed++ {
						out, err := Run(in.g, mode, p, sim.Config{Seed: seed})
						if err != nil {
							t.Fatalf("K=%d seed=%d: %v", k, seed, err)
						}
						key := fmt.Sprintf("%s/alg%d/K%d/seed%d", in.name, mode, k, seed)
						got := fmt.Sprintf("%s undecided=%d attempts=%d rounds=%d msgs=%d fnv=%016x",
							key, len(out.Undecided), out.MaxAttempts, out.Res.Rounds, out.Res.MsgsSent, outcomeHash(out))
						if got != want[key] {
							t.Errorf("outcome differs\n got:  %s\n want: %s", got, want[key])
						}
					}
				}
			})
		}
	}
}

// outcomeHash is an FNV-64a hash of everything an Outcome reports besides
// the timetable.
func outcomeHash(out *Outcome) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for _, in := range out.InSet {
		if in {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	put(int64(len(out.Undecided)))
	for _, v := range out.Undecided {
		put(int64(v))
	}
	for _, a := range out.Res.Awake {
		put(int64(a))
	}
	r := out.Res
	for _, v := range []int64{int64(r.Rounds), r.MsgsSent, r.MsgsDropped, r.BitsTotal, int64(r.BitsMax), r.Violations,
		int64(out.MaxDepth), int64(out.MaxAttempts), int64(out.BrokenNodes), int64(out.Components), int64(out.MaxComponent)} {
		put(v)
	}
	h.Write(buf)
	return h.Sum64()
}

// pinnedOutcomes are TestOutcomesPinned's rows.
var pinnedOutcomes = []string{
	"gnp300/alg1/K0/seed1 undecided=0 attempts=1 rounds=124623 msgs=57211 fnv=eabdb8277fa9c491",
	"gnp300/alg1/K0/seed2 undecided=0 attempts=1 rounds=124623 msgs=57880 fnv=8a7b6b780ff8a165",
	"gnp300/alg1/K1/seed1 undecided=0 attempts=1 rounds=124623 msgs=47981 fnv=9f68704cff2f0748",
	"gnp300/alg1/K1/seed2 undecided=0 attempts=1 rounds=124623 msgs=48104 fnv=2b7965b96921c7d4",
	"gnp300/alg1/K64/seed1 undecided=0 attempts=1 rounds=124623 msgs=63801 fnv=b1991af161e8638f",
	"gnp300/alg1/K64/seed2 undecided=0 attempts=1 rounds=124623 msgs=64230 fnv=84ef442357c82fa1",
	"gnp300/alg2/K0/seed1 undecided=0 attempts=1 rounds=111577 msgs=58528 fnv=9be4d6c1e6d870f7",
	"gnp300/alg2/K0/seed2 undecided=0 attempts=1 rounds=111577 msgs=59197 fnv=e336ba32e7abc8db",
	"gnp300/alg2/K1/seed1 undecided=0 attempts=1 rounds=111577 msgs=49298 fnv=ed5ae5a8ac8bfce2",
	"gnp300/alg2/K1/seed2 undecided=0 attempts=1 rounds=111577 msgs=49421 fnv=8ceeb7e6b07c90c3",
	"gnp300/alg2/K64/seed1 undecided=0 attempts=1 rounds=111577 msgs=65118 fnv=4e70431943be5a3b",
	"gnp300/alg2/K64/seed2 undecided=0 attempts=1 rounds=111577 msgs=65547 fnv=28d126ac9daffade",
	"gnp300-cut/alg1/K0/seed1 undecided=0 attempts=1 rounds=124585 msgs=56774 fnv=17d4ca929e4cfb08",
	"gnp300-cut/alg1/K0/seed2 undecided=0 attempts=1 rounds=124585 msgs=57109 fnv=38a028d33e95e515",
	"gnp300-cut/alg1/K1/seed1 undecided=294 attempts=4 rounds=126415 msgs=65064 fnv=9ed5196cb13f7c48",
	"gnp300-cut/alg1/K1/seed2 undecided=0 attempts=2 rounds=125195 msgs=53642 fnv=2d834e052092d912",
	"gnp300-cut/alg1/K64/seed1 undecided=0 attempts=1 rounds=124585 msgs=62098 fnv=0626a8e67c3ae536",
	"gnp300-cut/alg1/K64/seed2 undecided=0 attempts=1 rounds=124585 msgs=62391 fnv=16f7189cf5a4a201",
	"gnp300-cut/alg2/K0/seed1 undecided=0 attempts=1 rounds=111539 msgs=58091 fnv=d0863fdfe8be3fba",
	"gnp300-cut/alg2/K0/seed2 undecided=0 attempts=1 rounds=111539 msgs=58426 fnv=dcbeb1963e3747d2",
	"gnp300-cut/alg2/K1/seed1 undecided=294 attempts=4 rounds=113369 msgs=66381 fnv=d496574ae804a832",
	"gnp300-cut/alg2/K1/seed2 undecided=0 attempts=2 rounds=112149 msgs=54959 fnv=8c0bf0015863f416",
	"gnp300-cut/alg2/K64/seed1 undecided=0 attempts=1 rounds=111539 msgs=63415 fnv=58f45295365faa8f",
	"gnp300-cut/alg2/K64/seed2 undecided=0 attempts=1 rounds=111539 msgs=63708 fnv=fe75f443682055d0",
	"path70/alg1/K0/seed1 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg1/K0/seed2 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg1/K1/seed1 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg1/K1/seed2 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg1/K64/seed1 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg1/K64/seed2 undecided=70 attempts=0 rounds=22084 msgs=13071 fnv=240638471821bbc8",
	"path70/alg2/K0/seed1 undecided=0 attempts=1 rounds=21005 msgs=11441 fnv=f4b22d157cd57ead",
	"path70/alg2/K0/seed2 undecided=0 attempts=1 rounds=21005 msgs=11574 fnv=84f91aab338038d6",
	"path70/alg2/K1/seed1 undecided=0 attempts=1 rounds=21005 msgs=10466 fnv=d28740d621f09e6b",
	"path70/alg2/K1/seed2 undecided=0 attempts=1 rounds=21005 msgs=10346 fnv=34b5d52e42706aa4",
	"path70/alg2/K64/seed1 undecided=0 attempts=1 rounds=21005 msgs=12138 fnv=e411f0ac92696c3e",
	"path70/alg2/K64/seed2 undecided=0 attempts=1 rounds=21005 msgs=12306 fnv=26abc13c060650e9",
	"cycle60/alg1/K0/seed1 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg1/K0/seed2 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg1/K1/seed1 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg1/K1/seed2 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg1/K64/seed1 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg1/K64/seed2 undecided=60 attempts=0 rounds=16908 msgs=9489 fnv=97519dc245b2c6ec",
	"cycle60/alg2/K0/seed1 undecided=0 attempts=1 rounds=16086 msgs=8398 fnv=0277ea560ad124ba",
	"cycle60/alg2/K0/seed2 undecided=0 attempts=1 rounds=16086 msgs=8474 fnv=00a82e79b6bdcb46",
	"cycle60/alg2/K1/seed1 undecided=0 attempts=1 rounds=16086 msgs=7666 fnv=f1c51d65704a5cd6",
	"cycle60/alg2/K1/seed2 undecided=0 attempts=1 rounds=16086 msgs=7538 fnv=d756d397315aa66a",
	"cycle60/alg2/K64/seed1 undecided=0 attempts=1 rounds=16086 msgs=9112 fnv=be7e40bd19f64356",
	"cycle60/alg2/K64/seed2 undecided=0 attempts=1 rounds=16086 msgs=9256 fnv=65795478592e45af",
	"cliquechain/alg1/K0/seed1 undecided=0 attempts=1 rounds=13755 msgs=15816 fnv=72dcfc4b6d2a8ad6",
	"cliquechain/alg1/K0/seed2 undecided=0 attempts=1 rounds=13755 msgs=15449 fnv=22a619d7cc8d5943",
	"cliquechain/alg1/K1/seed1 undecided=0 attempts=1 rounds=13755 msgs=14067 fnv=dde53a9360bd6bd8",
	"cliquechain/alg1/K1/seed2 undecided=0 attempts=1 rounds=13755 msgs=14369 fnv=907b71d423644bcb",
	"cliquechain/alg1/K64/seed1 undecided=0 attempts=1 rounds=13755 msgs=17710 fnv=eb03a7f1a16906aa",
	"cliquechain/alg1/K64/seed2 undecided=0 attempts=1 rounds=13755 msgs=17384 fnv=a07815434414c800",
	"cliquechain/alg2/K0/seed1 undecided=0 attempts=1 rounds=12947 msgs=11435 fnv=4366b6bd6d606693",
	"cliquechain/alg2/K0/seed2 undecided=0 attempts=1 rounds=12947 msgs=11068 fnv=3e69e8da9fa9a481",
	"cliquechain/alg2/K1/seed1 undecided=0 attempts=1 rounds=12947 msgs=9686 fnv=80d93bb584819cdb",
	"cliquechain/alg2/K1/seed2 undecided=0 attempts=1 rounds=12947 msgs=9988 fnv=9996efe273a9ce4d",
	"cliquechain/alg2/K64/seed1 undecided=0 attempts=1 rounds=12947 msgs=13329 fnv=a486f9f2870600b4",
	"cliquechain/alg2/K64/seed2 undecided=0 attempts=1 rounds=12947 msgs=13003 fnv=4adfcb7614030fdd",
	"tree200/alg1/K0/seed1 undecided=0 attempts=1 rounds=69290 msgs=24343 fnv=f7bdc06146e8f748",
	"tree200/alg1/K0/seed2 undecided=0 attempts=1 rounds=69290 msgs=24715 fnv=fbbf8666de020258",
	"tree200/alg1/K1/seed1 undecided=0 attempts=1 rounds=69290 msgs=21879 fnv=8345f97cb1c09dc7",
	"tree200/alg1/K1/seed2 undecided=0 attempts=1 rounds=69290 msgs=21780 fnv=5f6871e588d8ea6b",
	"tree200/alg1/K64/seed1 undecided=0 attempts=1 rounds=69290 msgs=26481 fnv=042f17437b194844",
	"tree200/alg1/K64/seed2 undecided=0 attempts=1 rounds=69290 msgs=26524 fnv=d88e81751c7cff31",
	"tree200/alg2/K0/seed1 undecided=0 attempts=1 rounds=65240 msgs=20753 fnv=02948a8c294d7638",
	"tree200/alg2/K0/seed2 undecided=0 attempts=1 rounds=65240 msgs=21125 fnv=5c321a86d9df5016",
	"tree200/alg2/K1/seed1 undecided=0 attempts=1 rounds=65240 msgs=18289 fnv=939c02e831a66a97",
	"tree200/alg2/K1/seed2 undecided=0 attempts=1 rounds=65240 msgs=18190 fnv=c6c1cbd15fe0b3df",
	"tree200/alg2/K64/seed1 undecided=0 attempts=1 rounds=65240 msgs=22891 fnv=26ee426d3947bae8",
	"tree200/alg2/K64/seed2 undecided=0 attempts=1 rounds=65240 msgs=22934 fnv=fb6e4756d41c107f",
	"gnp2000/alg1/K0/seed1 undecided=0 attempts=1 rounds=984570 msgs=475640 fnv=626241c4d4845f95",
	"gnp2000/alg1/K0/seed2 undecided=0 attempts=1 rounds=984570 msgs=475192 fnv=84263ee0447ac232",
	"gnp2000/alg1/K1/seed1 undecided=0 attempts=1 rounds=984570 msgs=385554 fnv=a1757fe495a32e23",
	"gnp2000/alg1/K1/seed2 undecided=0 attempts=1 rounds=984570 msgs=388196 fnv=b66a8a851eccd5ad",
	"gnp2000/alg1/K64/seed1 undecided=0 attempts=1 rounds=984570 msgs=520566 fnv=ad057c4fe5767a30",
	"gnp2000/alg1/K64/seed2 undecided=0 attempts=1 rounds=984570 msgs=520934 fnv=e8740cccc6850dd4",
	"gnp2000/alg2/K0/seed1 undecided=0 attempts=1 rounds=881536 msgs=452873 fnv=e8c316b224516859",
	"gnp2000/alg2/K0/seed2 undecided=0 attempts=1 rounds=881536 msgs=452425 fnv=58d1005a8fe17ef9",
	"gnp2000/alg2/K1/seed1 undecided=0 attempts=1 rounds=881536 msgs=362787 fnv=eeab1b5d2fd33947",
	"gnp2000/alg2/K1/seed2 undecided=0 attempts=1 rounds=881536 msgs=365429 fnv=a990272a40057002",
	"gnp2000/alg2/K64/seed1 undecided=0 attempts=1 rounds=881536 msgs=497799 fnv=aed7f7e56ff6677a",
	"gnp2000/alg2/K64/seed2 undecided=0 attempts=1 rounds=881536 msgs=498167 fnv=8d1fa87758dee65f",
}
