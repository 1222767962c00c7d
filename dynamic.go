package energymis

import (
	"fmt"
	"strconv"

	"github.com/energymis/energymis/internal/core"
	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/stats"
	"github.com/energymis/energymis/internal/stream"
)

// Update is one topology change for a DynamicMIS. Build updates with
// InsEdge/DelEdge/InsNode/DelNode and apply them with ApplyBatch
// (window-coalesced), Apply (one batch) or the per-update convenience
// methods.
type Update = dynamic.Update

// UpdateOp identifies the kind of an Update.
type UpdateOp = dynamic.Op

// Update operations.
const (
	OpInsertEdge = dynamic.OpInsertEdge
	OpRemoveEdge = dynamic.OpRemoveEdge
	OpInsertNode = dynamic.OpInsertNode
	OpRemoveNode = dynamic.OpRemoveNode
)

// InsEdge returns an edge-insertion update.
func InsEdge(u, v int) Update { return dynamic.InsEdge(u, v) }

// DelEdge returns an edge-removal update.
func DelEdge(u, v int) Update { return dynamic.DelEdge(u, v) }

// InsNode returns a node-insertion update; the node is assigned the next
// slot index when applied.
func InsNode(neighbors ...int) Update { return dynamic.InsNode(neighbors...) }

// DelNode returns a node-removal update.
func DelNode(v int) Update { return dynamic.DelNode(v) }

// RepairAlgo selects the localized re-election protocol used by repairs.
type RepairAlgo = dynamic.RepairAlgo

// Repair protocols.
const (
	// RepairLuby re-elects with Luby's algorithm on the affected region.
	RepairLuby = dynamic.RepairLuby
	// RepairGhaffari uses the desire-level dynamics with a Luby finisher.
	RepairGhaffari = dynamic.RepairGhaffari
)

// BatchStats is the measured cost of one update batch (or, from
// ApplyBatch, the aggregate over the windows it applied).
type BatchStats = dynamic.BatchStats

// DynamicStats is the cumulative cost of a DynamicMIS lifetime.
type DynamicStats = dynamic.Stats

// DynamicOptions configures a DynamicMIS. The zero value is valid: seed 0,
// Luby repairs, no coalescing window.
type DynamicOptions struct {
	// Seed drives the bootstrap run and all repair randomness.
	Seed uint64
	// Repair selects the re-election protocol: RepairLuby (the default
	// for 0) or RepairGhaffari. Any other value is an error.
	Repair RepairAlgo
	// SelfCheck validates the MIS invariant after every batch (O(n+m);
	// meant for tests).
	SelfCheck bool
	// Window > 0 makes ApplyBatch coalesce updates into repairs of at
	// most Window updates each; 0 repairs each ApplyBatch slice as a
	// single batch. Larger windows merge overlapping repair regions
	// (higher throughput, higher per-repair latency); see docs/DYNAMIC.md
	// for tuning.
	Window int
	// TracePath, when non-empty, streams a versioned JSONL trace of every
	// repair to the given file: election phase spans ("repair/luby",
	// "repair/ghaffari", "repair/finisher"), per-round engine events, and
	// one synthetic "repair/detect" span per batch carrying the
	// detection-round cost. Call Close to write the summary record; the
	// summary covers repairs only (not the bootstrap), so mistrace check
	// proves the streamed spans reproduce the engine's repair totals.
	TracePath string
}

// DynamicMIS maintains a maximal independent set under edge and node
// churn. An update wakes only the nodes in the 1–2 hop neighborhood of
// the change and repairs the set with a localized re-election, instead of
// re-running a static algorithm on the whole network; rounds, per-node
// awake rounds, and messages are accounted with the same semantics as
// static runs. Repairs execute on the SoA batch engine (see
// docs/DYNAMIC.md).
type DynamicMIS struct {
	eng    *dynamic.Engine
	algo   Algorithm
	window int

	// Tracing state: the open writer and the per-node awake ledger at
	// trace start, so Close can summarize exactly the traced window.
	tw        *obs.TraceWriter
	tracePath string
	awakeBase []int64
}

func newDynamicMIS(g *Graph, inSet []bool, algo Algorithm, algoName string, opts DynamicOptions) (*DynamicMIS, error) {
	d := &DynamicMIS{algo: algo, window: opts.Window, tracePath: opts.TracePath}
	params := dynamic.Params{
		Seed:      opts.Seed,
		Repair:    opts.Repair,
		SelfCheck: opts.SelfCheck,
	}
	if params.Repair == 0 {
		params.Repair = RepairLuby
	}
	if opts.TracePath != "" {
		tw, err := obs.CreateTrace(opts.TracePath, map[string]string{
			"algorithm": algoName,
			"mode":      "dynamic",
			"repair":    params.Repair.String(),
			"n":         strconv.Itoa(g.N()),
			"m":         strconv.Itoa(g.M()),
			"seed":      strconv.FormatUint(opts.Seed, 10),
			"window":    strconv.Itoa(opts.Window),
		})
		if err != nil {
			return nil, err
		}
		d.tw = tw
		params.Tracer = tw
	}
	eng, err := dynamic.New(g, inSet, params)
	if err != nil {
		if d.tw != nil {
			d.tw.Close()
		}
		return nil, err
	}
	d.eng = eng
	return d, nil
}

// NewDynamic bootstraps a dynamic MIS on g by running the static algorithm
// algo, then maintains the set under updates. The bootstrap cost is
// recorded in DynamicStats' Bootstrap fields. When DynamicOptions.TracePath
// is set, call Close after the last update to finalize the trace.
func NewDynamic(g *Graph, algo Algorithm, opts DynamicOptions) (*DynamicMIS, error) {
	ca := algo.toCore()
	if ca == 0 {
		return nil, fmt.Errorf("energymis: unknown algorithm %d", int(algo))
	}
	copts := core.DefaultOptions()
	copts.Seed = opts.Seed
	res, err := core.Run(g, ca, copts)
	if err != nil {
		return nil, fmt.Errorf("energymis: dynamic bootstrap: %w", err)
	}
	d, err := newDynamicMIS(g, res.InSet, algo, ca.String(), opts)
	if err != nil {
		return nil, err
	}
	s := res.Summary
	d.eng.NoteBootstrap(dynamic.BootstrapCost{
		Rounds:       s.Rounds,
		AwakePerNode: res.AwakePerNode,
		Messages:     s.MsgsSent,
		MsgsDropped:  s.MsgsDropped,
		Bits:         s.BitsTotal,
		BitsMax:      s.BitsMax,
		Violations:   s.Violations,
	})
	if d.tw != nil {
		d.awakeBase = d.eng.AwakePerNode()
	}
	return d, nil
}

// NewDynamicFrom wraps an existing maximal independent set of g (for
// example GreedyMIS(g), or the InSet of a previous Run) in a dynamic
// engine without paying for a bootstrap run; the Bootstrap fields of
// DynamicStats stay zero. The set is validated; inSet is copied.
func NewDynamicFrom(g *Graph, inSet []bool, opts DynamicOptions) (*DynamicMIS, error) {
	return newDynamicMIS(g, inSet, 0, "external", opts)
}

// Algorithm returns the static algorithm used for the bootstrap (0 for
// NewDynamicFrom).
func (d *DynamicMIS) Algorithm() Algorithm { return d.algo }

// Window returns the ApplyBatch coalescing window (0 = whole slice).
func (d *DynamicMIS) Window() int { return d.window }

// InsertEdge inserts the edge {u, v} and repairs the set.
func (d *DynamicMIS) InsertEdge(u, v int) (BatchStats, error) { return d.eng.InsertEdge(u, v) }

// RemoveEdge removes the edge {u, v} and repairs the set.
func (d *DynamicMIS) RemoveEdge(u, v int) (BatchStats, error) { return d.eng.RemoveEdge(u, v) }

// InsertNode adds a node adjacent to neighbors and returns its slot index.
func (d *DynamicMIS) InsertNode(neighbors ...int) (int, BatchStats, error) {
	return d.eng.InsertNode(neighbors...)
}

// RemoveNode deletes node v and all its incident edges.
func (d *DynamicMIS) RemoveNode(v int) (BatchStats, error) { return d.eng.RemoveNode(v) }

// Apply applies a batch of updates atomically with a single repair pass;
// overlapping affected regions are re-elected together.
func (d *DynamicMIS) Apply(batch []Update) (BatchStats, error) { return d.eng.Apply(batch) }

// ApplyBatch applies a stream of updates through the coalescing window
// (DynamicOptions.Window): each window of updates is repaired in one
// batch, merging overlapping regions. With Window 0 (or a stream no
// longer than the window) it is one Apply call. The returned BatchStats
// aggregate all windows; the set is fully repaired when ApplyBatch
// returns. On error, the windows before the failing one and the valid
// prefix of the failing window are applied and repaired, later updates
// are not, and the returned Updates counts exactly the applied ones.
func (d *DynamicMIS) ApplyBatch(updates []Update) (BatchStats, error) {
	if len(updates) == 0 {
		return BatchStats{}, nil
	}
	if d.window <= 0 || d.window >= len(updates) {
		return d.eng.Apply(updates)
	}
	var agg BatchStats
	for start := 0; start < len(updates); start += d.window {
		end := start + d.window
		if end > len(updates) {
			end = len(updates)
		}
		bs, err := d.eng.Apply(updates[start:end])
		agg.Add(bs)
		if err != nil {
			return agg, err
		}
	}
	return agg, nil
}

// InSet returns a copy of the membership vector indexed by slot; dead
// slots are false.
func (d *DynamicMIS) InSet() []bool { return d.eng.InSet() }

// InMIS reports whether node v is currently in the maintained set.
func (d *DynamicMIS) InMIS(v int) bool { return d.eng.InMIS(v) }

// MISSize returns the current number of members.
func (d *DynamicMIS) MISSize() int {
	n := 0
	for _, in := range d.eng.InSet() {
		if in {
			n++
		}
	}
	return n
}

// N returns the number of node slots (alive and dead).
func (d *DynamicMIS) N() int { return d.eng.N() }

// AliveCount returns the number of live nodes.
func (d *DynamicMIS) AliveCount() int { return d.eng.AliveCount() }

// M returns the current number of edges.
func (d *DynamicMIS) M() int { return d.eng.M() }

// Alive reports whether slot v holds a live node.
func (d *DynamicMIS) Alive(v int) bool { return d.eng.Alive(v) }

// Degree returns the current degree of node v (0 for dead or out-of-range
// slots).
func (d *DynamicMIS) Degree(v int) int { return d.eng.Degree(v) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *DynamicMIS) HasEdge(u, v int) bool { return d.eng.HasEdge(u, v) }

// Snapshot builds an immutable compacted graph of the live topology, the
// mapping from snapshot index to slot, and the membership vector aligned
// with the snapshot indexing.
func (d *DynamicMIS) Snapshot() (*Graph, []int, []bool) {
	g, orig := d.eng.Snapshot()
	ids := make([]int, len(orig))
	for i, v := range orig {
		ids[i] = int(v)
	}
	return g, ids, d.eng.SnapshotSet(orig)
}

// Stats returns the cumulative lifetime statistics.
func (d *DynamicMIS) Stats() DynamicStats { return d.eng.Stats() }

// DynamicPerf counts the batch engine's internal mechanics (word-sweep
// volume). Unlike DynamicStats these measure the implementation, not the
// distributed protocol, so they may change between modes that produce
// identical protocol counters.
type DynamicPerf = dynamic.Perf

// Perf returns cumulative engine-mechanics counters (see DynamicPerf).
func (d *DynamicMIS) Perf() DynamicPerf { return d.eng.Perf() }

// AwakePerNode returns cumulative per-slot awake rounds (bootstrap plus
// all repairs) — the per-node energy spend.
func (d *DynamicMIS) AwakePerNode() []int64 { return d.eng.AwakePerNode() }

// Check validates that the maintained set is a maximal independent set of
// the current topology.
func (d *DynamicMIS) Check() error { return d.eng.Check() }

// IsValidMIS reports whether the maintained set is currently a maximal
// independent set of the topology — the per-update invariant of the
// update contract (docs/DYNAMIC.md). Check returns the reason when it is
// not.
func (d *DynamicMIS) IsValidMIS() bool { return d.eng.Check() == nil }

// Close finalizes the run trace, writing a summary record computed from
// the engine's repair totals (so `mistrace check` can verify the streamed
// spans reproduce them) and closing the file. A no-op without TracePath;
// safe to call more than once. Updates applied after Close are not traced
// but are otherwise unaffected.
func (d *DynamicMIS) Close() error {
	if d.tw == nil {
		return nil
	}
	tw := d.tw
	d.tw = nil
	st := d.eng.Stats()
	awake := d.eng.AwakePerNode()
	for v, base := range d.awakeBase {
		if v < len(awake) {
			awake[v] -= base
		}
	}
	sum := obs.SummaryStats{
		Rounds:      int(st.Rounds),
		AwakeTotal:  st.AwakeTotal,
		MsgsSent:    st.Messages,
		MsgsDropped: st.MsgsDropped,
		BitsTotal:   st.Bits,
		BitsMax:     st.BitsMax,
		Violations:  st.Violations,
		MISSize:     d.MISSize(),

		Components:    st.Components,
		MaxComponents: st.MaxComponents,
		SweepWords:    d.eng.Perf().SweepWords,
	}
	if n := len(awake); n > 0 {
		top, p99 := stats.MaxP99(awake)
		sum.MaxAwake = int(top)
		sum.AvgAwake = float64(st.AwakeTotal) / float64(n)
		sum.P99Awake = int(p99)
	}
	tw.Summary(sum)
	if err := tw.Close(); err != nil {
		return fmt.Errorf("energymis: writing trace %s: %w", d.tracePath, err)
	}
	return nil
}

// Update-stream generators: deterministic workload traces for DynamicMIS.

// ChurnStream emits steps batches of `batch` uniform edge toggles each,
// starting from g's topology (insert when absent, remove when present).
func ChurnStream(g *Graph, steps, batch int, seed uint64) [][]Update {
	return stream.UniformChurn(g, steps, batch, seed)
}

// WindowStream emits steps batches over an n-node universe where one
// random edge arrives per step and expires after window steps.
func WindowStream(n, window, steps int, seed uint64) [][]Update {
	return stream.SlidingWindow(n, window, steps, seed)
}

// HubAttackStream emits steps adversarial batches that repeatedly kill and
// reintroduce the current maximum-degree node, maximizing repair regions.
func HubAttackStream(g *Graph, steps int, seed uint64) [][]Update {
	return stream.HubAttack(g, steps, seed)
}

// StreamUpdates counts the individual updates in a trace.
func StreamUpdates(trace [][]Update) int { return stream.Updates(trace) }

// FlattenStream concatenates a stream's batches into one update sequence,
// for feeding ApplyBatch (which re-windows it by DynamicOptions.Window).
func FlattenStream(trace [][]Update) []Update {
	out := make([]Update, 0, stream.Updates(trace))
	for _, b := range trace {
		out = append(out, b...)
	}
	return out
}
