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
// fields and a second payload field, and never panic on truncated or
// mutated input — pinned by FuzzPlanCodec, and for the inline-event
// parser by FuzzInlineEvents.
//
// Plan and shard messages carry their largest part, the inline event
// array, where encoding/json would read it twice before the parser
// reads it once more. So their decoders first run a locator: it walks
// the envelope key by key down to the spec and hands each inline value
// of the spec, where it sits, to repro.InlineEvents.DecodePrefix. What
// is left of the body, each such value replaced by null, then takes
// the envelope's one strict encoding/json pass, which stays the only
// decoder of every other field; the parsed events are set on the spec
// after it. When the walk cannot finish, the whole body takes that
// pass as it came, so the locator decides how fast a message decodes,
// never what it decodes to — pinned by FuzzInlineLocator against
// encoding/json alone.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
// exactly one payload field. Encoders set the payload to the value
// itself. Decoders set it to the address of their destination pointer,
// so the payload decodes in place, in the frame's one pass.
type envelope struct {
	V        int `json:"v"`
	Plan     any `json:"plan,omitempty"`
	Report   any `json:"report,omitempty"`
	Progress any `json:"progress,omitempty"`
	Shard    any `json:"shard,omitempty"`
	Partial  any `json:"partial,omitempty"`
}

// payloads names every payload field of the envelope.
var payloads = [...]string{"plan", "report", "progress", "shard", "partial"}

// payload returns the envelope's field for the payload kind.
func (e *envelope) payload(kind string) *any {
	switch kind {
	case "plan":
		return &e.Plan
	case "report":
		return &e.Report
	case "progress":
		return &e.Progress
	case "shard":
		return &e.Shard
	default:
		return &e.Partial
	}
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
func EncodeShard(sh *Shard) ([]byte, error) { return encodeEnvelope("shard", sh) }

// DecodeShard decodes a versioned shard message, as strictly as
// DecodePlan decodes specs and the same way: the locator reads the
// inline arrays of the shard's spec in place, and encoding/json the
// rest of the body.
func DecodeShard(data []byte) (*Shard, error) {
	body, inline, walked := splitInline(data, shardInline)
	sh, err := decodeEnvelope[Shard]("shard", body)
	if err != nil {
		return nil, err
	}
	if sh.Spec == nil {
		return nil, errors.New("serve: shard: missing spec")
	}
	if walked {
		sh.Spec.Inline = inline
	}
	canonicalize(sh.Spec)
	return sh, nil
}

// EncodePartial wraps a partial result in the versioned envelope.
func EncodePartial(p *Partial) ([]byte, error) { return encodeEnvelope("partial", p) }

// DecodePartial decodes a versioned partial-result message.
func DecodePartial(data []byte) (*Partial, error) {
	p, err := decodeEnvelope[Partial]("partial", data)
	if err != nil {
		return nil, err
	}
	if p.Report == nil {
		return nil, errors.New("serve: partial: missing report")
	}
	return p, nil
}

// EncodePlan wraps a plan spec in the versioned envelope.
func EncodePlan(spec *repro.PlanSpec) ([]byte, error) { return encodeEnvelope("plan", spec) }

// DecodePlan decodes a versioned plan-spec message. The locator reads
// each inline event array of the spec where it sits in data, with
// InlineEvents.DecodePrefix, a parser without reflection that accepts,
// rejects and produces exactly what encoding/json does for the array;
// the rest of the body, each array replaced by null, decodes in one
// strict encoding/json pass with the spec in place inside the
// envelope. A body the locator cannot walk takes that pass whole.
// Unknown envelope, spec or event fields, a missing or null payload, a
// second payload field and any version other than CodecVersion are
// errors naming the offending field. Empty arrays decode to nil, as
// omitempty encodes nil and empty alike, so that every decoded spec
// survives EncodePlan and DecodePlan unchanged.
func DecodePlan(data []byte) (*repro.PlanSpec, error) {
	body, inline, walked := splitInline(data, planInline)
	spec, err := decodeEnvelope[repro.PlanSpec]("plan", body)
	if err != nil {
		return nil, err
	}
	if walked {
		spec.Inline = inline
	}
	canonicalize(spec)
	return spec, nil
}

// The key paths from an envelope to the inline values of its spec.
var (
	planInline  = []string{"plan", "inline"}
	shardInline = []string{"shard", "spec", "inline"}
)

// splitInline runs the locator over data: it walks the envelope
// object key by key, descending into the value of every key that
// selects path's next field, and reads the value of every key that
// selects its last field, the spec's inline, with DecodePrefix. A key
// selects a field as it does in encoding/json, so repeated keys apply
// in document order to the one slice, and a null on the way resets
// it, as encoding/json's null resets the pointer that holds the spec.
// A walk that meets a malformed object on the path, or an inline value
// the parser rejects, does not finish.
//
// When the walk finishes, body is data with every inline value on the
// path replaced by null, and events holds those values decoded in
// document order onto one slice, as encoding/json would have decoded
// them onto the spec's. When it does not, body is data as it came, and
// encoding/json decodes the inline values as well.
//
// Every byte outside the inline values stays in the body that
// decodeEnvelope decodes, so the walk needs to find value boundaries
// only, not to validate: skip is exact on valid JSON, and whatever it
// makes of invalid JSON, encoding/json rejects the same bytes.
func splitInline(data []byte, path []string) (body []byte, events repro.InlineEvents, walked bool) {
	l := locator{data: data}
	switch {
	case !l.object(path):
		return data, nil, false
	case l.rest == nil: // no inline value: nothing to copy
		return data, nil, true
	}
	return append(l.rest, data[l.from:]...), l.events, true
}

// locator is the walk of splitInline: i is the read offset into data,
// rest holds data up to from with every inline value read so far
// replaced by null, and events is the slice those values decode onto.
type locator struct {
	data   []byte
	i      int
	rest   []byte
	from   int
	events repro.InlineEvents
}

// object walks the object at the read offset down path.
func (l *locator) object(path []string) bool {
	if l.next() != '{' {
		return false
	}
	l.i++
	if l.next() == '}' {
		l.i++
		return true
	}
	for {
		key, ok := l.key()
		if !ok || l.next() != ':' {
			return false
		}
		l.i++
		// encoding/json selects a field by its name, or else by the name
		// under simple Unicode case folding, as bytes.EqualFold compares,
		// so that ſ (U+017F) selects s. No other field of the envelope,
		// Shard or PlanSpec folds like the names on the paths.
		switch c := l.next(); {
		case !bytes.EqualFold(key, []byte(path[0])):
			ok = l.skip()
		case len(path) == 1:
			ok = l.inline()
		case c == '{':
			ok = l.object(path[1:])
		default:
			if c == 'n' { // null resets the spec, and its events with it
				l.events = nil
			}
			ok = l.skip()
		}
		if !ok {
			return false
		}
		switch l.next() {
		case ',':
			l.i++
		case '}':
			l.i++
			return true
		default:
			return false
		}
	}
}

// inline reads the inline value at the read offset onto the events and
// puts null in its place in the rest.
func (l *locator) inline() bool {
	start := l.i
	n, err := l.events.DecodePrefix(l.data[start:])
	if err != nil {
		return false
	}
	l.rest = append(append(l.rest, l.data[l.from:start]...), "null"...)
	l.i = start + n
	l.from = l.i
	return true
}

// key reads the object key at the read offset, unquoted by
// encoding/json when it holds an escape.
func (l *locator) key() ([]byte, bool) {
	if l.next() != '"' {
		return nil, false
	}
	start := l.i
	escaped, ok := l.str()
	switch {
	case !ok:
		return nil, false
	case !escaped:
		return l.data[start+1 : l.i-1], true
	}
	var key string
	if json.Unmarshal(l.data[start:l.i], &key) != nil {
		return nil, false
	}
	return []byte(key), true
}

// str moves the read offset past the string token there and reports
// whether the token holds an escape.
func (l *locator) str() (escaped, ok bool) {
	for i := l.i + 1; i < len(l.data); i++ {
		switch l.data[i] {
		case '"':
			l.i = i + 1
			return escaped, true
		case '\\':
			escaped = true
			i++
		}
	}
	return false, false
}

// skip moves the read offset to the end of the value there: to the
// first ',', '}' or ']' outside its strings and brackets.
func (l *locator) skip() bool {
	depth := 0
	for l.i < len(l.data) {
		switch l.data[l.i] {
		case '"':
			if _, ok := l.str(); !ok {
				return false
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true
			}
			depth--
		case ',':
			if depth == 0 {
				return true
			}
		}
		l.i++
	}
	return false
}

// next skips white space and returns the byte at the read offset, 0
// at the end of the input.
func (l *locator) next() byte {
	for ; l.i < len(l.data); l.i++ {
		switch c := l.data[l.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// canonicalize sets the spec's empty arrays to nil.
func canonicalize(spec *repro.PlanSpec) {
	if len(spec.Inline) == 0 {
		spec.Inline = nil
	}
	if len(spec.Metrics) == 0 {
		spec.Metrics = nil
	}
	if len(spec.Selectors) == 0 {
		spec.Selectors = nil
	}
	if len(spec.Grid) == 0 {
		spec.Grid = nil
	}
	if len(spec.Windows) == 0 {
		spec.Windows = nil
	}
	for i := range spec.Windows {
		if len(spec.Windows[i].Grid) == 0 {
			spec.Windows[i].Grid = nil
		}
	}
}

// EncodeReport wraps a report in the versioned envelope. The encoding
// is deterministic: byte-identical whenever the report's results are
// identical (engine instrumentation does not travel with results).
func EncodeReport(rep *repro.Report) ([]byte, error) { return encodeEnvelope("report", rep) }

// DecodeReport decodes a versioned report message.
func DecodeReport(data []byte) (*repro.Report, error) {
	return decodeEnvelope[repro.Report]("report", data)
}

// EncodeProgress wraps one engine progress event in the versioned
// envelope — the payload of each SSE progress frame.
func EncodeProgress(ev repro.ProgressEvent) ([]byte, error) { return encodeEnvelope("progress", ev) }

// DecodeProgress decodes a versioned progress-event message.
func DecodeProgress(data []byte) (repro.ProgressEvent, error) {
	ev, err := decodeEnvelope[repro.ProgressEvent]("progress", data)
	if err != nil {
		return repro.ProgressEvent{}, err
	}
	return *ev, nil
}

// encodeEnvelope wraps payload in the envelope as the kind field.
func encodeEnvelope(kind string, payload any) ([]byte, error) {
	env := envelope{V: CodecVersion}
	*env.payload(kind) = payload
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", kind, err)
	}
	return data, nil
}

// decodeEnvelope decodes data in one strict pass: unknown fields and
// trailing data are refused, and the kind payload decodes straight
// into the returned value. Every other payload field is captured only
// to be refused by name. A null payload counts as absent. When the
// pass fails on a message of another version, the version is the error
// reported: that message was not written for this build's types.
func decodeEnvelope[T any](kind string, data []byte) (*T, error) {
	var (
		env    envelope
		dst    *T
		others [len(payloads)]*json.RawMessage
	)
	for i, k := range payloads {
		if k == kind {
			*env.payload(k) = &dst
		} else {
			*env.payload(k) = &others[i]
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&env)
	if err == nil && len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errors.New("trailing data after value")
	}
	if err != nil {
		var version struct {
			V int `json:"v"`
		}
		if json.Unmarshal(data, &version) != nil || version.V == CodecVersion {
			return nil, fmt.Errorf("serve: %s: envelope: %w", kind, err)
		}
		env.V = version.V
	}
	if env.V != CodecVersion {
		return nil, fmt.Errorf("serve: %s: v: unsupported codec version %d (this build speaks %d)", kind, env.V, CodecVersion)
	}
	if dst == nil {
		return nil, fmt.Errorf("serve: %s: missing %q payload field", kind, kind)
	}
	for i, raw := range others {
		if raw != nil {
			return nil, fmt.Errorf("serve: %s: %s: unexpected payload field beside %q (an envelope carries exactly one)", kind, payloads[i], kind)
		}
	}
	return dst, nil
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
	Stream      string              `json:"stream"`
	Directed    bool                `json:"directed"`
	Metrics     []string            `json:"metrics"`
	Selectors   []string            `json:"selectors,omitempty"`
	Grid        []int64             `json:"grid,omitempty"`
	GridPoints  int                 `json:"grid_points,omitempty"`
	MinDelta    int64               `json:"min_delta,omitempty"`
	Refine      int                 `json:"refine,omitempty"`
	Windows     []repro.Window      `json:"windows,omitempty"`
	WindowsOnly bool                `json:"windows_only,omitempty"`
	Adaptive    *repro.AdaptiveSpec `json:"adaptive,omitempty"`
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
		Stream:      streamID,
		Directed:    spec.Directed,
		Metrics:     metrics,
		Selectors:   spec.Selectors,
		Grid:        spec.Grid,
		GridPoints:  spec.GridPoints,
		MinDelta:    spec.MinDelta,
		Refine:      spec.Refine,
		Windows:     spec.Windows,
		WindowsOnly: spec.WindowsOnly,
		Adaptive:    spec.Adaptive,
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
// columnar reference. It is the hex SHA-256, prefixed "inline:", of
// each event in order as uvarint(len(U)), U, uvarint(len(V)), V,
// varint(T), the encoding/binary varints. Every field is
// length-prefixed or self-delimiting, so distinct event sequences
// never encode alike.
func InlineHash(events []repro.InlineEvent) string {
	h := sha256.New()
	// Events are written in batches of about 3 KiB: one Write per event
	// costs a third more.
	buf := make([]byte, 0, 4096)
	for _, e := range events {
		buf = binary.AppendUvarint(buf, uint64(len(e.U)))
		buf = append(buf, e.U...)
		buf = binary.AppendUvarint(buf, uint64(len(e.V)))
		buf = append(buf, e.V...)
		buf = binary.AppendVarint(buf, e.T)
		if len(buf) >= 3072 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return "inline:" + hex.EncodeToString(h.Sum(nil))
}
