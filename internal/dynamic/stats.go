package dynamic

import "fmt"

// BatchStats reports the measured cost of one Apply call with the same
// semantics as a static run: rounds elapsed, awake rounds spent, CONGEST
// messages sent.
type BatchStats struct {
	Updates int // updates applied in the batch
	Woken   int // distinct nodes that woke at least once
	Region  int // size of the re-elected uncovered region
	// Components counts the connected components the uncovered region
	// split into — the independent elections of the batch (singletons
	// included).
	Components int
	Rounds     int // repair rounds (1 detection/probe round + election rounds)

	AwakeRounds int64 // total node-awake-rounds charged
	Messages    int64 // CONGEST messages (notifications, probes, election)
	MsgsDropped int64 // election messages whose receiver was asleep
	Bits        int64 // election message bits (notifications/probes carry none)
	Violations  int64 // election messages exceeding the CONGEST budget
	BitsMax     int   // largest single election message, in bits

	Evictions int // members evicted by conflict resolution
	Joins     int // members added by the re-election
	Retries   int // Ghaffari stages that left stragglers
}

// Add accumulates other into s: counters sum, Region and BitsMax take the
// maximum over the aggregated batches. Used by window-coalescing callers
// (energymis.DynamicMIS.ApplyBatch) to report one aggregate per call.
func (s *BatchStats) Add(other BatchStats) {
	s.Updates += other.Updates
	s.Woken += other.Woken
	s.Components += other.Components
	s.Rounds += other.Rounds
	s.AwakeRounds += other.AwakeRounds
	s.Messages += other.Messages
	s.MsgsDropped += other.MsgsDropped
	s.Bits += other.Bits
	s.Violations += other.Violations
	s.Evictions += other.Evictions
	s.Joins += other.Joins
	s.Retries += other.Retries
	if other.Region > s.Region {
		s.Region = other.Region
	}
	if other.BitsMax > s.BitsMax {
		s.BitsMax = other.BitsMax
	}
}

// Stats accumulates engine-lifetime measurements.
type Stats struct {
	Batches   int64
	Updates   int64
	Elections int64 // batches that needed a re-election

	Rounds      int64 // total repair rounds
	AwakeTotal  int64 // total awake rounds across all repairs
	Messages    int64
	MsgsDropped int64 // election messages whose receiver was asleep
	Bits        int64 // election message bits
	Violations  int64 // CONGEST violations across all repairs
	BitsMax     int   // largest single repair message, in bits
	WokenTotal  int64 // sum over batches of distinct woken nodes
	Evictions   int64
	Joins       int64
	MaxRegion   int // largest re-elected region

	// Components counts independent region components across all batches
	// (one election each); MaxComponents is the largest single-batch
	// count.
	Components    int64
	MaxComponents int

	// Bootstrap cost of the initial static run (set via NoteBootstrap),
	// kept apart from the repair totals so repair-only accounting (e.g.
	// trace summaries) stays exact.
	BootstrapRounds      int
	BootstrapAwake       int64
	BootstrapMessages    int64
	BootstrapMsgsDropped int64
	BootstrapBits        int64
	BootstrapBitsMax     int
	BootstrapViolations  int64
}

// BootstrapCost describes the totals of the static run that produced the
// initial set, for NoteBootstrap.
type BootstrapCost struct {
	Rounds       int
	AwakePerNode []int64
	Messages     int64
	MsgsDropped  int64
	Bits         int64
	BitsMax      int
	Violations   int64
}

// String renders a compact report.
func (s Stats) String() string {
	return fmt.Sprintf(
		"batches=%d updates=%d elections=%d rounds=%d awake=%d msgs=%d woken=%d evict=%d join=%d maxRegion=%d",
		s.Batches, s.Updates, s.Elections, s.Rounds, s.AwakeTotal, s.Messages,
		s.WokenTotal, s.Evictions, s.Joins, s.MaxRegion)
}
