package twin

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/energymis/energymis/internal/obs"
)

// SchemaVersion identifies the TWIN_MIS.json layout. Bump when fields
// change incompatibly; ReadBaseline refuses mismatched versions.
const SchemaVersion = 1

// Bands are the tolerance bands of one entry, all relative fractions.
// Measurements are deterministic, so in an unchanged tree every drift is
// exactly zero; the bands define how far an intentional change may move a
// curve before the fitness gate calls it a different algorithm.
type Bands struct {
	// Constant bounds the relative drift of the re-fitted constant.
	Constant float64 `json:"constant"`
	// Point bounds the relative drift of each measured point against the
	// baseline's measurement at the same n.
	Point float64 `json:"point"`
	// Shape bounds the growth of the max relative residual of the fit:
	// residuals swelling beyond baseline+Shape mean the series no longer
	// follows its declared closed form, even if the constant held.
	Shape float64 `json:"shape"`
}

// DefaultBands returns the standard tolerance bands: 10% constant drift,
// 10% per-point drift, +0.10 residual growth.
func DefaultBands() Bands { return Bands{Constant: 0.10, Point: 0.10, Shape: 0.10} }

// Entry is one fitted model: the declared shape, the least-squares
// constant, fit quality, tolerance bands, and the measured points the fit
// consumed (committed so the CI artifact can show residuals without
// re-deriving them).
type Entry struct {
	Algorithm string  `json:"algorithm"`
	Metric    Metric  `json:"metric"`
	Family    string  `json:"family"`
	Shape     ShapeID `json:"shape"`
	Claim     string  `json:"claim,omitempty"`
	// Constant is the least-squares estimate of c in metric ≈ c·φ(n).
	Constant float64 `json:"constant"`
	// R2 is the coefficient of determination of the fit; R2OK is false
	// when R² is undefined (constant shapes have zero model variance).
	R2   float64 `json:"r2,omitempty"`
	R2OK bool    `json:"r2_ok"`
	// MaxRelResidual is the worst relative deviation of a measured point
	// from the fitted curve — how non-asymptotic the swept sizes are.
	MaxRelResidual float64 `json:"max_rel_residual"`
	Bands          Bands   `json:"bands"`
	Points         []Point `json:"points"`
}

// Key identifies the entry across baselines.
func (e *Entry) Key() string { return e.Algorithm + "/" + string(e.Metric) }

// Predict evaluates the fitted curve at n.
func (e *Entry) Predict(n int) float64 { return e.Constant * e.Shape.Eval(n) }

// Baseline is the versioned top-level document of TWIN_MIS.json.
type Baseline struct {
	SchemaVersion int          `json:"schema_version"`
	Env           obs.TraceEnv `json:"env"`
	Sweep         SweepSpec    `json:"sweep"`
	Entries       []Entry      `json:"entries"`
}

// Entry finds an entry by key, or nil.
func (b *Baseline) Entry(key string) *Entry {
	for i := range b.Entries {
		if b.Entries[i].Key() == key {
			return &b.Entries[i]
		}
	}
	return nil
}

// WriteBaseline writes the baseline as indented JSON.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a baseline and validates its schema version and
// shape vocabulary.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("twin: parsing %s: %w", path, err)
	}
	if b.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("twin: %s has schema version %d, this binary speaks %d",
			path, b.SchemaVersion, SchemaVersion)
	}
	for i := range b.Entries {
		if !b.Entries[i].Shape.Valid() {
			return nil, fmt.Errorf("twin: %s entry %s declares unknown shape %q",
				path, b.Entries[i].Key(), b.Entries[i].Shape)
		}
	}
	return &b, nil
}
