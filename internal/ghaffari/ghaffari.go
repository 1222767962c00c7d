package ghaffari

import "github.com/energymis/energymis/internal/rng"

const (
	pMax = 0.5
	pMin = 1.0 / (1 << 20)
)

// Proto is the per-node state of K packed executions, the form Lemma 2.7's
// finisher runs on poly(log n)-size components: Phase III's machines
// embed it and drive it by ComposeMarks/AbsorbMarks/AbsorbJoins. One
// execution on the whole graph (Lemma 2.6) runs as Batch instead.
type Proto struct {
	K    int
	rand *rng.Stream

	p         []float64 // desire level per execution
	InMIS     []bool    // joined in execution e
	Out       []bool    // a neighbor joined in execution e
	markedNow []uint64  // scratch: this round's own marks, packed
}

// NewProto returns a fresh protocol state for k executions.
func NewProto(k int, rand *rng.Stream) *Proto {
	p := &Proto{
		K:         k,
		rand:      rand,
		p:         make([]float64, k),
		InMIS:     make([]bool, k),
		Out:       make([]bool, k),
		markedNow: make([]uint64, (k+63)/64),
	}
	for i := range p.p {
		p.p[i] = pMax
	}
	return p
}

// Words returns the number of 64-bit words a K-bit vector occupies.
func (p *Proto) Words() int { return (p.K + 63) / 64 }

// Bits returns the message size of one packed vector.
func (p *Proto) Bits() int32 { return int32(p.K) }

// ComposeMarks draws this round's marks and returns them packed. A node
// that is decided (in or out) in execution e never marks in e.
func (p *Proto) ComposeMarks() []uint64 {
	for i := range p.markedNow {
		p.markedNow[i] = 0
	}
	for e := 0; e < p.K; e++ {
		if p.InMIS[e] || p.Out[e] {
			continue
		}
		if p.rand.Bernoulli(p.p[e]) {
			p.markedNow[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	return p.markedNow
}

// AbsorbMarks processes the packed mark vectors received from neighbors:
// it decides joins (marked with no marked neighbor) and updates desire
// levels (halve on >=1 marked neighbor, else double, capped). It returns
// the packed join vector to announce.
func (p *Proto) AbsorbMarks(neighborMarks [][]uint64) []uint64 {
	nbrAny := make([]uint64, p.Words())
	for _, v := range neighborMarks {
		for i := range nbrAny {
			if i < len(v) {
				nbrAny[i] |= v[i]
			}
		}
	}
	joins := make([]uint64, p.Words())
	for e := 0; e < p.K; e++ {
		if p.InMIS[e] || p.Out[e] {
			continue
		}
		w, b := e>>6, uint64(1)<<(uint(e)&63)
		nbrMarked := nbrAny[w]&b != 0
		selfMarked := p.markedNow[w]&b != 0
		if selfMarked && !nbrMarked {
			p.InMIS[e] = true
			joins[w] |= b
		}
		if nbrMarked {
			p.p[e] /= 2
			if p.p[e] < pMin {
				p.p[e] = pMin
			}
		} else {
			p.p[e] *= 2
			if p.p[e] > pMax {
				p.p[e] = pMax
			}
		}
	}
	return joins
}

// AbsorbJoins processes neighbors' packed join vectors: any join in
// execution e knocks this node out of e (unless it joined itself, which
// cannot coincide with a neighbor join in a correct run).
func (p *Proto) AbsorbJoins(neighborJoins [][]uint64) {
	for _, v := range neighborJoins {
		for e := 0; e < p.K; e++ {
			if e>>6 < len(v) && v[e>>6]&(1<<(uint(e)&63)) != 0 && !p.InMIS[e] {
				p.Out[e] = true
			}
		}
	}
}

// Undecided reports whether the node is undecided in execution e.
func (p *Proto) Undecided(e int) bool { return !p.InMIS[e] && !p.Out[e] }

// AllDecided reports whether the node is decided in every execution.
func (p *Proto) AllDecided() bool {
	for e := 0; e < p.K; e++ {
		if p.Undecided(e) {
			return false
		}
	}
	return true
}

// SuccessVector returns the packed per-execution success bits for this
// node: success in e means the node is decided in e.
func (p *Proto) SuccessVector() []uint64 {
	out := make([]uint64, p.Words())
	for e := 0; e < p.K; e++ {
		if !p.Undecided(e) {
			out[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	return out
}
