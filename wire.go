package repro

// This file is the wire surface of the plan/run lifecycle: PlanSpec is
// the serialisable form of an analysis request (what NewAnalysis
// freezes from functional options, expressed as data), and Report
// gains JSON marshalling so a run's outcome can leave the process. The
// serving layer (internal/serve, cmd/tsserve) wraps both in a
// versioned envelope; everything here is the version-independent
// payload shape.
//
// A PlanSpec references its stream one of two ways: by StreamRef — a
// path plus the columnar file's header hash and span, the out-of-core
// reference a server resolves against its stream root — or by Inline
// events carried in the spec itself (small streams, tests). Custom
// observers, raw segments and progress callbacks are code, not data:
// plans that need them are built with functional options and cannot
// round-trip through a PlanSpec.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/dist"
)

// StreamRef identifies a stream file by path and content fingerprint:
// the columnar header hash (Columnar.HeaderHash) plus the header's
// span and event count. Path is the only field a submitter must fill;
// the fingerprint fields, when set, let the receiver refuse a ref
// whose file has changed since the spec was built.
type StreamRef struct {
	// Path locates the stream file. Servers resolve it relative to
	// their stream root; a Plan built locally records the path it
	// opened.
	Path string `json:"path"`
	// Hash is the hex SHA-256 header hash of the columnar file
	// (empty for refs built over non-columnar files, which have no
	// cheap fingerprint).
	Hash string `json:"hash,omitempty"`
	// TimeMin, TimeMax and Events mirror the columnar header's span
	// and event count.
	TimeMin int64 `json:"time_min,omitempty"`
	TimeMax int64 `json:"time_max,omitempty"`
	Events  int   `json:"events,omitempty"`
}

// InlineEvent is one link-stream event carried inside a PlanSpec.
type InlineEvent struct {
	U string `json:"u"`
	V string `json:"v"`
	T int64  `json:"t"`
}

// InlineEvents is the type of PlanSpec.Inline. It is assignable to and
// from []InlineEvent; its only addition is a decoder (UnmarshalJSON)
// that reads the array without reflection.
type InlineEvents []InlineEvent

// AdaptiveSpec is the wire form of WithAdaptive's AdaptiveConfig, the
// segmentation policy (everything else of an adaptive run comes from
// the spec's own knobs, exactly as with WithAdaptive).
type AdaptiveSpec struct {
	Bins             int     `json:"bins,omitempty"`
	MinRunBins       int     `json:"min_run_bins,omitempty"`
	SeparationFactor float64 `json:"separation_factor,omitempty"`
}

// PlanSpec is the serialisable form of an analysis request. The zero
// value plus a stream reference is the paper's default analysis, like
// option-less NewAnalysis; every field maps onto exactly one
// functional option (see Options). Fields that do not alter results —
// Workers, MaxInFlight, ElongationSpill — are execution hints: the
// engine pins results bit-identical across them, which is what lets a
// server cache results without keying on them.
type PlanSpec struct {
	// Stream references the stream file; exactly one of Stream and
	// Inline must be set.
	Stream *StreamRef `json:"stream,omitempty"`
	// Inline carries the stream's events in the spec itself.
	Inline InlineEvents `json:"inline,omitempty"`

	// Metrics are the metric names WithMetrics/ParseMetrics accept
	// ("occupancy", "classic", "distance", "loss", "elongation",
	// "degree", "clustering", "components", "coreness", "weighted");
	// nil selects the default set (occupancy alone).
	Metrics []string `json:"metrics,omitempty"`
	// Selectors are selector names (see ParseSelectors); nil selects
	// the paper's M-K proximity selector.
	Selectors []string `json:"selectors,omitempty"`
	Directed  bool     `json:"directed,omitempty"`
	// Grid, GridPoints and MinDelta shape the candidate grid exactly
	// like WithGrid, WithGridPoints and WithMinDelta.
	Grid       []int64  `json:"grid,omitempty"`
	GridPoints int      `json:"grid_points,omitempty"`
	MinDelta   int64    `json:"min_delta,omitempty"`
	Refine     int      `json:"refine,omitempty"`
	Windows    []Window `json:"windows,omitempty"`
	// WindowsOnly drops the global scope (WithWindowsOnly): only the
	// spec's Windows are analysed. Shard specs of a distributed run use
	// it so window chunks cost no redundant whole-stream pass.
	WindowsOnly bool          `json:"windows_only,omitempty"`
	Adaptive    *AdaptiveSpec `json:"adaptive,omitempty"`

	// Execution hints (never part of a result's identity).
	Workers         int   `json:"workers,omitempty"`
	MaxInFlight     int   `json:"max_inflight,omitempty"`
	ElongationSpill int64 `json:"elongation_spill,omitempty"`
}

// ParseSelectors resolves selector wire names — the Selector.Name()
// values, e.g. "mk-proximity", "shannon-entropy" — into Selector
// values. Unknown names error and name every known selector.
func ParseSelectors(names []string) ([]Selector, error) {
	all := dist.AllSelectors()
	var out []Selector
	for _, name := range names {
		found := false
		for _, sel := range all {
			if sel.Name() == name {
				out = append(out, sel)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, len(all))
			for i, sel := range all {
				known[i] = sel.Name()
			}
			return nil, fmt.Errorf("repro: unknown selector %q (have %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// Options maps the spec onto the functional options NewAnalysis
// accepts — everything except the stream itself (see NewPlan, which
// resolves that too). Specs round-trip: NewAnalysis(stream,
// spec.Options()...) behaves exactly like hand-written options with
// the same values.
func (spec *PlanSpec) Options() ([]Option, error) {
	var opts []Option
	if len(spec.Metrics) > 0 {
		ms, err := ParseMetrics(strings.Join(spec.Metrics, ","))
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMetrics(ms...))
	}
	if len(spec.Selectors) > 0 {
		sels, err := ParseSelectors(spec.Selectors)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithSelectors(sels...))
	}
	if spec.Directed {
		opts = append(opts, WithDirected(true))
	}
	if len(spec.Grid) > 0 {
		opts = append(opts, WithGrid(spec.Grid...))
	}
	if spec.GridPoints != 0 {
		opts = append(opts, WithGridPoints(spec.GridPoints))
	}
	if spec.MinDelta != 0 {
		opts = append(opts, WithMinDelta(spec.MinDelta))
	}
	if spec.Refine != 0 {
		opts = append(opts, WithRefine(spec.Refine))
	}
	if len(spec.Windows) > 0 {
		opts = append(opts, WithWindows(spec.Windows...))
	}
	if spec.WindowsOnly {
		opts = append(opts, WithWindowsOnly())
	}
	if spec.Adaptive != nil {
		opts = append(opts, WithAdaptive(AdaptiveConfig(*spec.Adaptive)))
	}
	if spec.Workers != 0 {
		opts = append(opts, WithWorkers(spec.Workers))
	}
	if spec.MaxInFlight != 0 {
		opts = append(opts, WithMaxInFlight(spec.MaxInFlight))
	}
	if spec.ElongationSpill != 0 {
		opts = append(opts, WithElongationSpill(spec.ElongationSpill))
	}
	return opts, nil
}

// InlineEventsOf is InlineStream's inverse: the stream's events as the
// wire form a PlanSpec carries in-line, for submitters that parsed a
// small stream locally and want a server (or coordinator) to analyse
// it without a shared file.
func InlineEventsOf(s *Stream) []InlineEvent {
	events := s.Events()
	out := make([]InlineEvent, len(events))
	for i, e := range events {
		out[i] = InlineEvent{U: s.NodeName(e.U), V: s.NodeName(e.V), T: e.T}
	}
	return out
}

// InlineStream materialises the spec's Inline events into a Stream.
func (spec *PlanSpec) InlineStream() (*Stream, error) {
	s := NewStream()
	for i, e := range spec.Inline {
		if err := s.Add(e.U, e.V, e.T); err != nil {
			return nil, fmt.Errorf("repro: inline event %d: %w", i, err)
		}
	}
	return s, nil
}

// NewPlan builds the plan the spec describes, resolving the stream
// reference: Inline events become an in-memory stream, a StreamRef
// opens the file at its path (columnar files memory-mapped, exactly
// like WithStreamPath). Callers that resolve paths themselves — e.g. a
// server sandboxing refs under a stream root — should rewrite
// Stream.Path first. extra options are appended after the spec's own —
// the place for the non-serialisable ones (WithProgress,
// WithObservers). Close the returned plan when done if the spec used a
// StreamRef.
func (spec *PlanSpec) NewPlan(extra ...Option) (*Plan, error) {
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, extra...)
	switch {
	case spec.Stream != nil && len(spec.Inline) > 0:
		return nil, errors.New("repro: plan spec: stream ref and inline events are mutually exclusive")
	case spec.Stream != nil:
		return NewAnalysis(nil, append(opts, WithStreamPath(spec.Stream.Path))...)
	case len(spec.Inline) > 0:
		s, err := spec.InlineStream()
		if err != nil {
			return nil, err
		}
		return NewAnalysis(s, opts...)
	default:
		return nil, errors.New("repro: plan spec: no stream: set stream or inline")
	}
}

// StreamRef returns the columnar stream reference of a plan built with
// WithStreamPath over a columnar file — the path it opened plus the
// file's header hash, span and event count — and whether the plan has
// one (in-memory and text/LSB-parsed plans do not).
func (p *Plan) StreamRef() (StreamRef, bool) {
	if p.col == nil {
		return StreamRef{}, false
	}
	return StreamRef{
		Path:    p.cfg.streamPath,
		Hash:    p.col.HeaderHash(),
		TimeMin: p.col.TimeMin(),
		TimeMax: p.col.TimeMax(),
		Events:  p.col.NumEvents(),
	}, true
}

// reportWire is the JSON shape of a Report. The engine instrumentation
// (EngineStats) is deliberately not part of it: results are
// deterministic — bit-identical across worker counts and in-flight
// budgets — but the instrumentation of a particular run is
// not, and the wire form of a Report must be byte-identical whenever
// the results are. Serving layers report per-job stats beside the
// report, not inside it.
type reportWire struct {
	Scale    *Result           `json:"scale,omitempty"`
	Global   Curves            `json:"global"`
	Windows  []WindowReport    `json:"windows,omitempty"`
	Adaptive *AdaptiveAnalysis `json:"adaptive,omitempty"`
}

// MarshalJSON encodes the report's results: the saturation-scale
// outcome (absent when the plan deselected MetricOccupancy), the
// global curves, every window report and the adaptive analysis.
// Encoding is deterministic: the same results always produce the same
// bytes.
func (r *Report) MarshalJSON() ([]byte, error) {
	w := reportWire{
		Global:   r.global,
		Windows:  r.windows,
		Adaptive: r.adaptive,
	}
	if r.hasScale {
		sc := r.scale
		w.Scale = &sc
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a report encoded by MarshalJSON. The decoded
// report carries zero EngineStats — instrumentation does not travel
// with results.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w reportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		global:   w.Global,
		windows:  w.Windows,
		adaptive: w.Adaptive,
	}
	if w.Scale != nil {
		r.scale = *w.Scale
		r.hasScale = true
	}
	return nil
}
