package sim

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
)

// fuzzMachine sends and sleeps at rates set by FuzzEngineMatchesPerNode's
// inputs: it broadcasts with probability pb — one random bit in even
// rounds, which a dense round pulls, and the round in 4 to 19 bits in odd
// ones; in rounds 2 mod 4 sometimes twice, which sends a dense round to
// push, the second time either with Kind 2 or as the first broadcast with
// B = 1, so the outbox's header runs also split on B alone —, unicasts to
// each neighbor with probability pu, and sleeps far —
// around the wake calendar's ring size or past it — with probability
// pfar, near (1 to 3 rounds) otherwise. Message sizes straddle the
// CONGEST budget of 16 bits. Its digest folds every inbox, in order.
type fuzzMachine struct {
	env          *Env
	pb, pu, pfar float64
	left         int
	digest       uint64
}

// sleep draws a wake gap: far with probability pfar, near otherwise.
func (m *fuzzMachine) sleep(r *rng.Stream) int {
	if !r.Bernoulli(m.pfar) {
		return 1 + r.Intn(3)
	}
	switch k := r.Intn(5); k {
	case 4:
		return calSize + r.Intn(4*calSize)
	default:
		return []int{calSize - 1, calSize, calSize + 1, 5 * calSize}[k]
	}
}

func (m *fuzzMachine) Init(env *Env) int {
	m.env = env
	return m.sleep(env.Rand) - 1
}

func (m *fuzzMachine) Compose(round int, out *Outbox) {
	r := m.env.Rand
	if r.Bernoulli(m.pb) {
		draw := r.Intn(16)
		first := Msg{Kind: 1, A: uint64(draw) & 1, Bits: 1}
		if round%2 == 1 {
			first = Msg{Kind: 1, A: uint64(round), Bits: int32(4 + draw)}
		}
		out.Broadcast(first)
		if round%4 == 2 && r.Bernoulli(m.pb/2) {
			second := Msg{Kind: 2, A: r.Uint64(), Bits: 8}
			if draw&2 != 0 {
				second = first
				second.B = 1
			}
			out.Broadcast(second)
		}
	}
	for _, u := range m.env.Neighbors {
		if r.Bernoulli(m.pu) {
			out.Send(u, Msg{Kind: 3, A: uint64(u), Bits: int32(8 + r.Intn(16))})
		}
	}
}

func (m *fuzzMachine) Deliver(round int, inbox []Msg) int {
	m.digest = foldInbox(m.digest, inbox)
	m.left--
	if m.left <= 0 {
		return Never
	}
	return round + m.sleep(m.env.Rand)
}

func (m *fuzzMachine) Digest() uint64 { return m.digest }

// FuzzEngineMatchesPerNode holds the engine (Run, on RunBatch's wake
// calendar and its push and pull routers) to its reference runPerNode on
// random graphs and traffic: the graph size and edge probability, the
// seed, the broadcast and unicast rates, and the share of far wakes. Both
// must deliver byte-identical inbox sequences and report the same Result.
func FuzzEngineMatchesPerNode(f *testing.F) {
	f.Add(uint8(40), uint8(30), uint64(1), uint8(200), uint8(0), uint8(0))    // dense broadcast rounds: pull
	f.Add(uint8(40), uint8(30), uint64(2), uint8(60), uint8(40), uint8(20))   // sparse mixed rounds: push
	f.Add(uint8(60), uint8(20), uint64(3), uint8(255), uint8(0), uint8(128))  // pull with half the sleeps far
	f.Add(uint8(90), uint8(10), uint64(4), uint8(128), uint8(64), uint8(255)) // every sleep far
	f.Add(uint8(7), uint8(255), uint64(5), uint8(128), uint8(128), uint8(64)) // a clique
	f.Add(uint8(30), uint8(0), uint64(6), uint8(255), uint8(255), uint8(128)) // no edges
	f.Add(uint8(1), uint8(0), uint64(7), uint8(255), uint8(0), uint8(255))    // one node
	f.Fuzz(func(t *testing.T, n, p uint8, seed uint64, bcast, uni, far uint8) {
		g := graph.GNP(int(n%96)+1, float64(p)/255, seed)
		mk := func(int) digestMachine {
			return &fuzzMachine{pb: float64(bcast) / 255, pu: float64(uni) / 255, pfar: float64(far) / 255, left: 6}
		}
		cfg := Config{Seed: seed, B: 16}
		refDig, ref := runDigests(t, g, mk, runPerNode, cfg)
		dig, res := runDigests(t, g, mk, Run, cfg)
		for v := range refDig {
			if dig[v] != refDig[v] {
				t.Fatalf("node %d inbox digest %x, runPerNode %x", v, dig[v], refDig[v])
			}
		}
		if err := sameResult(res, ref); err != nil {
			t.Fatal(err)
		}
	})
}
