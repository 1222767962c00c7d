package phase3

import (
	"math"

	"github.com/energymis/energymis/internal/ghaffari"
)

// Mode selects the color-reduction depth, which distinguishes the Phase
// III of Algorithm 1 from that of Algorithm 2 (Section 3.2); core derives
// it from the algorithm.
type Mode int

// Modes.
const (
	// ModeAlg1 runs two color-reduction rounds, leaving O(log log n)
	// color classes (Algorithm 1 / Lemma 2.8).
	ModeAlg1 Mode = iota + 1
	// ModeAlg2 runs O(log* n) reduction rounds to a constant palette
	// (Algorithm 2 / [BM21a, Theorem 5.2] trade-off).
	ModeAlg2
)

// Params are the constants of Phase III that callers vary: core's
// forced-failure tests cut them to drive the finisher into its failure
// paths.
type Params struct {
	// GhaffariC scales the finisher's logical round count:
	// GRounds = ceil(GhaffariC * log2(maxComp+2)) + GhaffariFloor.
	GhaffariC     float64
	GhaffariFloor int
	// K is the number of packed parallel executions (0 = 2*ceil(log2 n),
	// at least 8); any K is clamped to ghaffari.MaxK = 64.
	K int
	// Attempts bounds finisher retries per component.
	Attempts int
}

// DefaultParams returns paper-faithful constants.
func DefaultParams() Params {
	return Params{
		GhaffariC:     2.5,
		GhaffariFloor: 8,
		Attempts:      3,
	}
}

// iterLayout holds round offsets of every stage within one iteration.
// Windows of tree operations are D rounds long; exchanges are 1 round.
type iterLayout struct {
	d       int
	x0      int
	cc1     int
	bc1     int
	x1      int
	cc2     int
	bc2     int
	x2a     int
	x2b     int
	cvBase  int // LR blocks of length (2D+1): X, CC, BC
	lr      int
	clBase  int // C blocks of length (2D+2): Xa, CCa, BCa, Xb
	classes int
	cc3     int
	bc3     int
	xr      int
	xr2     int
	mgBase  int // 4 blocks of length (2D+1): Xm, CCm, BCm
	length  int
}

func makeIterLayout(d, lr, classes int) iterLayout {
	l := iterLayout{d: d, lr: lr, classes: classes}
	off := 0
	next := func(n int) int { v := off; off += n; return v }
	l.x0 = next(1)
	l.cc1 = next(d)
	l.bc1 = next(d)
	l.x1 = next(1)
	l.cc2 = next(d)
	l.bc2 = next(d)
	l.x2a = next(1)
	l.x2b = next(1)
	l.cvBase = next(lr * (2*d + 1))
	l.clBase = next(classes * (2*d + 2))
	l.cc3 = next(d)
	l.bc3 = next(d)
	l.xr = next(1)
	l.xr2 = next(1)
	l.mgBase = next(4 * (2*d + 1))
	l.length = off
	return l
}

// cvBlock returns the stage offsets of color-reduction round r.
func (l iterLayout) cvBlock(r int) (x, cc, bc int) {
	base := l.cvBase + r*(2*l.d+1)
	return base, base + 1, base + 1 + l.d
}

// clBlock returns the stage offsets of class c's window.
func (l iterLayout) clBlock(c int) (xa, cca, bca, xb int) {
	base := l.clBase + c*(2*l.d+2)
	return base, base + 1, base + 1 + l.d, base + 1 + 2*l.d
}

// mgBlock returns the stage offsets of merge sub-stage s (0=M, 1=EH,
// 2=ML, 3=R).
func (l iterLayout) mgBlock(s int) (xm, ccm, bcm int) {
	base := l.mgBase + s*(2*l.d+1)
	return base, base + 1, base + 1 + l.d
}

// Timetable is the full static schedule of a Phase III run.
type Timetable struct {
	N       int   // nodes in the phase graph
	D       int   // tree-depth bound per window
	Iters   int   // merge iterations
	LR      int   // color-reduction rounds
	Classes int   // palette size after reduction
	Palette []int // palette sizes before each reduction round (len LR+1)

	GRounds  int // finisher logical rounds per attempt
	K        int // packed executions
	Attempts int

	layout   iterLayout
	finCheck int // round: cluster-ID check exchange
	finCCb   int // window: broken-flag convergecast
	finBCb   int // window: broken-flag broadcast
	finBase  int // first round of attempt 0
	attLen   int // rounds per attempt: 2*GRounds + 2D
	TotalLen int
}

// cvNext is one Cole–Vishkin step on an oriented forest: a k-coloring
// becomes a 2*ceil(log2 k)-coloring.
func cvNext(k int) int {
	if k <= 2 {
		return 2
	}
	b := int(math.Ceil(math.Log2(float64(k))))
	n := 2 * b
	if n >= k {
		return k
	}
	return n
}

// NewTimetable computes the schedule, in the given mode, for an n-node
// phase graph whose largest connected component has maxComp nodes.
func NewTimetable(n, maxComp int, mode Mode, p Params) *Timetable {
	if maxComp < 1 {
		maxComp = 1
	}
	d := maxComp + 1
	if d < 2 {
		d = 2
	}
	// Each cluster merges with at least one other per iteration, halving
	// the cluster count; +2 covers the rare iteration in which a high
	// cluster's in-edges all came from other high clusters.
	iters := int(math.Ceil(math.Log2(float64(maxComp+1)))) + 2
	if iters < 1 {
		iters = 1
	}

	// Color palette chain, starting from cluster IDs in [0, n).
	k0 := n
	if k0 < 2 {
		k0 = 2
	}
	palette := []int{k0}
	lr := 0
	switch mode {
	case ModeAlg2:
		for lr < 12 {
			nk := cvNext(palette[lr])
			if nk >= palette[lr] {
				break
			}
			palette = append(palette, nk)
			lr++
		}
	default: // ModeAlg1: exactly two reduction rounds
		for lr < 2 {
			palette = append(palette, cvNext(palette[lr]))
			lr++
		}
	}
	classes := palette[lr]

	k := p.K
	if k <= 0 {
		k = 2 * int(math.Ceil(math.Log2(float64(n+2))))
		if k < 8 {
			k = 8
		}
	}
	k = min(k, ghaffari.MaxK)
	gr := int(math.Ceil(p.GhaffariC*math.Log2(float64(maxComp+2)))) + p.GhaffariFloor
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}

	tt := &Timetable{
		N: n, D: d, Iters: iters, LR: lr, Classes: classes, Palette: palette,
		GRounds: gr, K: k, Attempts: attempts,
		layout: makeIterLayout(d, lr, classes),
	}
	tt.finCheck = iters * tt.layout.length
	tt.finCCb = tt.finCheck + 1
	tt.finBCb = tt.finCCb + d
	tt.finBase = tt.finBCb + d
	tt.attLen = 2*gr + 2*d
	tt.TotalLen = tt.finBase + attempts*tt.attLen
	return tt
}

// iterBase returns the first round of iteration i.
func (tt *Timetable) iterBase(i int) int { return i * tt.layout.length }

// attBase returns the first round of finisher attempt a.
func (tt *Timetable) attBase(a int) int { return tt.finBase + a*tt.attLen }

// attStages returns the offsets of attempt a's stages: the ghaffari block
// [g0, g0+2*GRounds), the success convergecast window, and the result
// broadcast window.
func (tt *Timetable) attStages(a int) (g0, cc, bc int) {
	b := tt.attBase(a)
	return b, b + 2*tt.GRounds, b + 2*tt.GRounds + tt.D
}
