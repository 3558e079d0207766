// Package serve turns the plan/run lifecycle into
// analysis-as-a-service: a versioned JSON wire codec for plan specs,
// reports and progress events; a bounded job queue with per-tenant
// concurrency budgets and a result cache keyed by the spec's result
// identity (stream hash, windows, candidate grid and the policy knobs
// that change results — never the execution knobs, which the engine
// pins bit-identical); and an HTTP server (cmd/tsserve) exposing
// submit, status, result and SSE progress endpoints over it.
//
// The wire contract: every message is a one-version envelope
// {"v": 1, "<kind>": {...}} whose payload is the root package's wire
// shape (repro.PlanSpec, repro.Report, repro.ProgressEvent). Decoders
// reject unknown versions by name, reject unknown envelope and spec
// fields, and never panic on truncated or mutated input — pinned by
// FuzzPlanCodec.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro"
)

// CodecVersion is the wire version this build speaks. Every encoded
// message carries it; decoding any other version fails.
const CodecVersion = 1

// envelope is the one wire frame of the codec: the version plus
// exactly one payload field.
type envelope struct {
	V        int             `json:"v"`
	Plan     json.RawMessage `json:"plan,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
	Progress json.RawMessage `json:"progress,omitempty"`
	Shard    json.RawMessage `json:"shard,omitempty"`
	Partial  json.RawMessage `json:"partial,omitempty"`
}

// Shard is the wire form of one distributed-execution shard: the lane
// it folds into and the self-contained spec the worker executes. The
// coordinator POSTs it to a worker's /v1/shards; the spec's stream ref
// carries the coordinator-observed header hash, so a worker whose file
// diverged rejects the shard (409) instead of corrupting the fold.
type Shard struct {
	Lane int             `json:"lane"`
	Spec *repro.PlanSpec `json:"spec"`
}

// Partial is a worker's answer to a Shard: the lane echoed back and
// the shard's partial report, ready for lane-order folding.
type Partial struct {
	Lane   int           `json:"lane"`
	Report *repro.Report `json:"report"`
}

// EncodeShard wraps a shard in the versioned envelope.
func EncodeShard(sh *Shard) ([]byte, error) {
	raw, err := json.Marshal(sh)
	if err != nil {
		return nil, fmt.Errorf("serve: shard: %w", err)
	}
	return json.Marshal(envelope{V: CodecVersion, Shard: raw})
}

// DecodeShard decodes a versioned shard message, as strictly as
// DecodePlan decodes specs.
func DecodeShard(data []byte) (*Shard, error) {
	raw, err := decodeEnvelope("shard", data, func(e *envelope) json.RawMessage { return e.Shard })
	if err != nil {
		return nil, err
	}
	sh := &Shard{}
	if err := strictUnmarshal(raw, sh); err != nil {
		return nil, fmt.Errorf("serve: shard: %w", err)
	}
	if sh.Spec == nil {
		return nil, errors.New("serve: shard: missing spec")
	}
	return sh, nil
}

// EncodePartial wraps a partial result in the versioned envelope.
func EncodePartial(p *Partial) ([]byte, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("serve: partial: %w", err)
	}
	return json.Marshal(envelope{V: CodecVersion, Partial: raw})
}

// DecodePartial decodes a versioned partial-result message.
func DecodePartial(data []byte) (*Partial, error) {
	raw, err := decodeEnvelope("partial", data, func(e *envelope) json.RawMessage { return e.Partial })
	if err != nil {
		return nil, err
	}
	p := &Partial{}
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, fmt.Errorf("serve: partial: %w", err)
	}
	if p.Report == nil {
		return nil, errors.New("serve: partial: missing report")
	}
	return p, nil
}

// EncodePlan wraps a plan spec in the versioned envelope.
func EncodePlan(spec *repro.PlanSpec) ([]byte, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: plan: %w", err)
	}
	return json.Marshal(envelope{V: CodecVersion, Plan: raw})
}

// DecodePlan decodes a versioned plan-spec message. Decoding is
// strict: unknown envelope or spec fields, a missing payload and any
// version other than CodecVersion are errors naming the offending
// field.
func DecodePlan(data []byte) (*repro.PlanSpec, error) {
	raw, err := decodeEnvelope("plan", data, func(e *envelope) json.RawMessage { return e.Plan })
	if err != nil {
		return nil, err
	}
	spec := &repro.PlanSpec{}
	if err := strictUnmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("serve: plan: %w", err)
	}
	return spec, nil
}

// EncodeReport wraps a report in the versioned envelope. The encoding
// is deterministic: byte-identical whenever the report's results are
// identical (engine instrumentation does not travel with results).
func EncodeReport(rep *repro.Report) ([]byte, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("serve: report: %w", err)
	}
	return json.Marshal(envelope{V: CodecVersion, Report: raw})
}

// DecodeReport decodes a versioned report message.
func DecodeReport(data []byte) (*repro.Report, error) {
	raw, err := decodeEnvelope("report", data, func(e *envelope) json.RawMessage { return e.Report })
	if err != nil {
		return nil, err
	}
	rep := &repro.Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("serve: report: %w", err)
	}
	return rep, nil
}

// EncodeProgress wraps one engine progress event in the versioned
// envelope — the payload of each SSE progress frame.
func EncodeProgress(ev repro.ProgressEvent) ([]byte, error) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("serve: progress: %w", err)
	}
	return json.Marshal(envelope{V: CodecVersion, Progress: raw})
}

// DecodeProgress decodes a versioned progress-event message.
func DecodeProgress(data []byte) (repro.ProgressEvent, error) {
	var ev repro.ProgressEvent
	raw, err := decodeEnvelope("progress", data, func(e *envelope) json.RawMessage { return e.Progress })
	if err != nil {
		return ev, err
	}
	if err := strictUnmarshal(raw, &ev); err != nil {
		return ev, fmt.Errorf("serve: progress: %w", err)
	}
	return ev, nil
}

// decodeEnvelope parses the outer frame, rejects wrong versions and
// returns the payload the pick function selects, erroring when it is
// absent.
func decodeEnvelope(kind string, data []byte, pick func(*envelope) json.RawMessage) (json.RawMessage, error) {
	var env envelope
	if err := strictUnmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: %s: envelope: %w", kind, err)
	}
	if env.V != CodecVersion {
		return nil, fmt.Errorf("serve: %s: v: unsupported codec version %d (this build speaks %d)", kind, env.V, CodecVersion)
	}
	raw := pick(&env)
	if len(raw) == 0 {
		return nil, fmt.Errorf("serve: %s: missing %q payload field", kind, kind)
	}
	return raw, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected and
// trailing garbage refused.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after value")
	}
	return nil
}

// resultKey is the canonical identity of a spec's results: everything
// that changes what the engine computes. Execution knobs — Workers,
// MaxInFlight, ElongationSpill — are absent by design: the engine pins
// results bit-identical across all of them (the worker-count and spill
// equivalence suites, and TestExecutionHintsAreResultNeutral), so two
// submits differing only there share one cache entry. Metrics are
// sorted and defaulted (nil means occupancy); Selectors keep their
// order, because the first selector decides the saturation scale.
type resultKey struct {
	Stream        string              `json:"stream"`
	Directed      bool                `json:"directed"`
	Metrics       []string            `json:"metrics"`
	Selectors     []string            `json:"selectors,omitempty"`
	Grid          []int64             `json:"grid,omitempty"`
	GridPoints    int                 `json:"grid_points,omitempty"`
	MinDelta      int64               `json:"min_delta,omitempty"`
	Refine        int                 `json:"refine,omitempty"`
	HistogramBins int                 `json:"histogram_bins,omitempty"`
	Windows       []repro.Window      `json:"windows,omitempty"`
	WindowsOnly   bool                `json:"windows_only,omitempty"`
	Adaptive      *repro.AdaptiveSpec `json:"adaptive,omitempty"`
}

// SpecKey derives the cache key of a spec given the authoritative
// stream identity (a columnar header hash, an inline-events hash from
// InlineHash, or a resolved path for formats without a cheap
// fingerprint). The key is a hex SHA-256 over the canonical encoding
// of the spec's result identity; see resultKey for what is — and
// deliberately is not — part of it.
func SpecKey(spec *repro.PlanSpec, streamID string) (string, error) {
	metrics := append([]string(nil), spec.Metrics...)
	if len(metrics) == 0 {
		metrics = []string{repro.MetricOccupancy.String()}
	}
	sort.Strings(metrics)
	key := resultKey{
		Stream:        streamID,
		Directed:      spec.Directed,
		Metrics:       metrics,
		Selectors:     spec.Selectors,
		Grid:          spec.Grid,
		GridPoints:    spec.GridPoints,
		MinDelta:      spec.MinDelta,
		Refine:        spec.Refine,
		HistogramBins: spec.HistogramBins,
		Windows:       spec.Windows,
		WindowsOnly:   spec.WindowsOnly,
		Adaptive:      spec.Adaptive,
	}
	raw, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("serve: spec key: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// InlineHash fingerprints a spec's inline events: the stream identity
// SpecKey uses when the spec carries its stream in-line rather than by
// columnar reference.
func InlineHash(events []repro.InlineEvent) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%q %q %d\n", e.U, e.V, e.T)
	}
	return "inline:" + hex.EncodeToString(h.Sum(nil))
}
