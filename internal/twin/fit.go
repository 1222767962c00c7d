package twin

import (
	"errors"
	"fmt"

	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/stats"
)

// FitModel fits one registry model against its measured series: the
// least-squares constant through the origin, R² (when defined), and the
// worst relative residual. The points must span at least two sizes.
func FitModel(m Model, family string, points []Point) (Entry, error) {
	if len(points) < 2 {
		return Entry{}, fmt.Errorf("twin: %s: %w", m.Key(), stats.ErrTooFewPoints)
	}
	phi := make([]float64, len(points))
	y := make([]float64, len(points))
	for i, p := range points {
		phi[i] = m.Shape.Eval(p.N)
		y[i] = p.Value
	}
	c, err := stats.FitProportional(phi, y)
	if err != nil {
		return Entry{}, fmt.Errorf("twin: fitting %s: %w", m.Key(), err)
	}
	pred := make([]float64, len(points))
	for i := range pred {
		pred[i] = c * phi[i]
	}
	e := Entry{
		Algorithm: m.Algorithm,
		Metric:    m.Metric,
		Family:    family,
		Shape:     m.Shape,
		Claim:     m.Claim,
		Constant:  c,
		Bands:     DefaultBands(),
		Points:    append([]Point(nil), points...),
	}
	// R² measures explained variance, which a constant shape has none of;
	// for those (and for degenerate series) the residual bound is the
	// only quality measure, and R2OK records the distinction explicitly.
	if m.Shape != ShapeConst {
		r2, rerr := stats.RSquared(y, pred)
		if rerr == nil {
			e.R2, e.R2OK = r2, true
		} else if !errors.Is(rerr, stats.ErrConstantSeries) {
			return Entry{}, fmt.Errorf("twin: R² of %s: %w", m.Key(), rerr)
		}
	}
	resid, err := stats.MaxRelResidual(y, pred)
	if err != nil {
		return Entry{}, fmt.Errorf("twin: residuals of %s: %w", m.Key(), err)
	}
	e.MaxRelResidual = resid
	return e, nil
}

// FitAll fits the full registry against a sweep's measurements and
// assembles the baseline document. Every registry model must have a
// measured series — a missing algorithm is an error, not a silent gap.
func FitAll(spec SweepSpec, ms Measurements) (*Baseline, error) {
	b := &Baseline{SchemaVersion: SchemaVersion, Env: obs.CaptureEnv(), Sweep: spec}
	for _, m := range Registry() {
		series, ok := ms[m.Algorithm]
		if !ok {
			return nil, fmt.Errorf("twin: no measurements for algorithm %s", m.Algorithm)
		}
		points := series[m.Metric]
		e, err := FitModel(m, spec.Family, points)
		if err != nil {
			return nil, err
		}
		b.Entries = append(b.Entries, e)
	}
	return b, nil
}

// CollectAndFit runs the sweep and fits the registry — the one-call path
// used by `mistrace fit`.
func CollectAndFit(spec SweepSpec, progress func(string)) (*Baseline, error) {
	ms, err := Collect(spec, progress)
	if err != nil {
		return nil, err
	}
	return FitAll(spec, ms)
}
