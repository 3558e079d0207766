package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// fullSpec exercises every PlanSpec field at once.
func fullSpec() *repro.PlanSpec {
	return &repro.PlanSpec{
		Stream: &repro.StreamRef{
			Path:    "campus/rollernet.lsc",
			Hash:    "deadbeef",
			TimeMin: 5,
			TimeMax: 50_000,
			Events:  1234,
		},
		Metrics:         []string{"occupancy", "classic", "loss"},
		Selectors:       []string{"mk-proximity", "shannon-entropy"},
		Directed:        true,
		Grid:            []int64{60, 600, 3600},
		GridPoints:      24,
		MinDelta:        30,
		Refine:          4,
		Windows:         []repro.Window{{Start: 0, End: 20_000}, {Start: 20_000, End: 50_000, Grid: []int64{60}}},
		Adaptive:        &repro.AdaptiveSpec{Bins: 96, MinRunBins: 3, SeparationFactor: 2},
		Workers:         3,
		MaxInFlight:     2,
		ElongationSpill: 1 << 20,
	}
}

func TestPlanCodecRoundTrip(t *testing.T) {
	for name, spec := range map[string]*repro.PlanSpec{
		"full":   fullSpec(),
		"zero":   {},
		"inline": {Inline: []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := EncodePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodePlan(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, spec) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
			}
			// Encoding is deterministic.
			again, err := EncodePlan(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(data) {
				t.Fatalf("re-encode differs:\n got %s\nwant %s", again, data)
			}
		})
	}
}

func TestPlanCodecRejectsVersions(t *testing.T) {
	for _, msg := range []string{
		`{"v":2,"plan":{}}`,
		`{"v":0,"plan":{}}`,
		`{"plan":{}}`,
		`{"v":-1,"plan":{}}`,
		// A future version's payload need not fit this build's types.
		`{"v":2,"plan":{"future_knob":1}}`,
	} {
		_, err := DecodePlan([]byte(msg))
		if err == nil {
			t.Fatalf("decoded %s without error", msg)
		}
		if !strings.Contains(err.Error(), "v: unsupported codec version") {
			t.Fatalf("version error does not name the field: %v", err)
		}
		if !strings.Contains(err.Error(), "this build speaks 1") {
			t.Fatalf("version error does not say what this build speaks: %v", err)
		}
	}
}

func TestPlanCodecStrictness(t *testing.T) {
	cases := map[string]string{
		"unknown envelope field": `{"v":1,"plan":{},"extra":1}`,
		"unknown spec field":     `{"v":1,"plan":{"gamma_please":9000}}`,
		"missing payload":        `{"v":1}`,
		"wrong payload kind":     `{"v":1,"report":{}}`,
		"trailing garbage":       `{"v":1,"plan":{}}{"v":1}`,
		"truncated":              `{"v":1,"plan":{"metrics":["occ`,
		"not json":               `gamma`,
		"empty":                  ``,
	}
	for name, msg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodePlan([]byte(msg)); err == nil {
				t.Fatalf("decoded %q without error", msg)
			}
		})
	}
	// An envelope carries exactly one payload: a second payload field
	// and a null payload are refused, by name.
	for _, c := range []struct{ msg, field string }{
		{`{"v":1,"plan":{},"report":{"global":{}}}`, `report: unexpected payload field`},
		{`{"v":1,"report":{"global":{}},"plan":{}}`, `report: unexpected payload field`},
		{`{"v":1,"plan":null}`, `missing "plan" payload`},
		{`{"v":1,"plan":{}}}`, `trailing data`},
		{`{"v":1,"plan":{"inline":[{"u":"a","v":"b","t":1,"w":2}]}}`, `unknown field "w"`},
	} {
		if _, err := DecodePlan([]byte(c.msg)); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s decoded with error %v, want one containing %q", c.msg, err, c.field)
		}
	}
	// Removed knobs are unknown fields, not silently ignored hints.
	for _, removed := range []struct{ name, field string }{
		{"speculate", `"speculate":true`},
		{"lane_width", `"lane_width":4`},
		{"histogram_bins", `"histogram_bins":24`},
	} {
		msg := `{"v":1,"plan":{"inline":[{"u":"a","v":"b","t":1}],"refine":3,` + removed.field + `}}`
		_, err := DecodePlan([]byte(msg))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+removed.name+`"`) {
			t.Fatalf("%s decoded as %v, want an unknown-field error", removed.name, err)
		}
	}
}

// TestInlineLocatorTakesArraysOut pins what the locator is for: the
// body encoding/json decodes keeps null where the inline array was, the
// array is decoded once, by the parser, and a body without an inline
// array goes to encoding/json as it came, uncopied.
func TestInlineLocatorTakesArraysOut(t *testing.T) {
	events := []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}
	plan, err := EncodePlan(&repro.PlanSpec{Inline: events, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := EncodeShard(&Shard{Lane: 2, Spec: &repro.PlanSpec{Inline: events, WindowsOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data []byte
		path []string
		rest string
	}{
		{plan, planInline, `{"v":1,"plan":{"inline":null,"grid_points":8}}`},
		{shard, shardInline, `{"v":1,"shard":{"lane":2,"spec":{"inline":null,"windows_only":true}}}`},
	} {
		body, got, walked := splitInline(c.data, c.path)
		if !walked || string(body) != c.rest || !reflect.DeepEqual([]repro.InlineEvent(got), events) {
			t.Errorf("split %s into walked %v, %s, %v; want %s and the events", c.data, walked, body, got, c.rest)
		}
	}
	ref := []byte(`{"v":1,"plan":{"stream":{"path":"a.lsc"},"grid":[60,3600]}}`)
	if body, _, walked := splitInline(ref, planInline); !walked || &body[0] != &ref[0] || len(body) != len(ref) {
		t.Errorf("a body without inline events was copied or not walked: %s", body)
	}
}

func TestProgressCodecRoundTrip(t *testing.T) {
	ev := repro.ProgressEvent{
		Pass:         2,
		Stage:        repro.ProgressPeriod,
		Delta:        3600,
		PeriodsDone:  5,
		PeriodsTotal: 24,
		Builds:       7,
		Dedups:       1,
		StreamBuilds: 2,
	}
	data, err := EncodeProgress(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProgress(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, ev)
	}
	// Stage travels by name, not ordinal.
	if !strings.Contains(string(data), `"stage":"period"`) {
		t.Fatalf("stage not encoded by name: %s", data)
	}
	if _, err := DecodeProgress([]byte(`{"v":1,"progress":{"stage":"warp-drive"}}`)); err == nil {
		t.Fatal("unknown stage name decoded without error")
	}
}

func TestSpecKeyIgnoresExecutionKnobs(t *testing.T) {
	base := fullSpec()
	key, err := SpecKey(base, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	variant := fullSpec()
	variant.Workers = 11
	variant.MaxInFlight = 7
	variant.ElongationSpill = 0
	got, err := SpecKey(variant, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("execution knobs changed the result key; they must not — results are pinned bit-identical across them")
	}
}

func TestSpecKeySensitivity(t *testing.T) {
	base := fullSpec()
	baseKey, err := SpecKey(base, "columnar:abc")
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]func(*repro.PlanSpec) string{
		"stream":   func(s *repro.PlanSpec) string { return "columnar:other" },
		"directed": func(s *repro.PlanSpec) string { s.Directed = false; return "columnar:abc" },
		"metrics":  func(s *repro.PlanSpec) string { s.Metrics = []string{"occupancy"}; return "columnar:abc" },
		"selectors": func(s *repro.PlanSpec) string {
			s.Selectors = []string{"shannon-entropy", "mk-proximity"}
			return "columnar:abc"
		},
		"grid":      func(s *repro.PlanSpec) string { s.Grid = []int64{60}; return "columnar:abc" },
		"min delta": func(s *repro.PlanSpec) string { s.MinDelta = 31; return "columnar:abc" },
		"refine":    func(s *repro.PlanSpec) string { s.Refine = 5; return "columnar:abc" },
		"windows":   func(s *repro.PlanSpec) string { s.Windows = s.Windows[:1]; return "columnar:abc" },
		"adaptive":  func(s *repro.PlanSpec) string { s.Adaptive = nil; return "columnar:abc" },
	}
	for name, mut := range mutate {
		s := fullSpec()
		id := mut(s)
		got, err := SpecKey(s, id)
		if err != nil {
			t.Fatal(err)
		}
		if got == baseKey {
			t.Fatalf("mutating %s did not change the result key", name)
		}
	}
}

func TestSpecKeyMetricsCanonical(t *testing.T) {
	a := &repro.PlanSpec{Metrics: []string{"loss", "occupancy", "classic"}}
	b := &repro.PlanSpec{Metrics: []string{"classic", "loss", "occupancy"}}
	ka, err := SpecKey(a, "s")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := SpecKey(b, "s")
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("metric order changed the key; metrics are a set")
	}
	// nil metrics and explicit occupancy coincide (the default set).
	kNil, err := SpecKey(&repro.PlanSpec{}, "s")
	if err != nil {
		t.Fatal(err)
	}
	kOcc, err := SpecKey(&repro.PlanSpec{Metrics: []string{"occupancy"}}, "s")
	if err != nil {
		t.Fatal(err)
	}
	if kNil != kOcc {
		t.Fatal("nil metrics and explicit occupancy produced different keys")
	}
}

func TestInlineHash(t *testing.T) {
	evs := []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}
	h1 := InlineHash(evs)
	h2 := InlineHash([]repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}})
	if h1 != h2 {
		t.Fatal("identical events hashed differently")
	}
	if h1 == InlineHash(evs[:1]) {
		t.Fatal("prefix hashed the same as the full stream")
	}
	if !strings.HasPrefix(h1, "inline:") {
		t.Fatalf("inline hash %q lacks its namespace prefix", h1)
	}
	// The fingerprint is the documented binary encoding: uvarint
	// lengths before the names, a zigzag varint time.
	sum := sha256.Sum256([]byte{1, 'a', 2, 'b', 'c', 1})
	if got, want := InlineHash([]repro.InlineEvent{{U: "a", V: "bc", T: -1}}), "inline:"+hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("InlineHash = %s, want %s", got, want)
	}
	// Names are length-prefixed: quotes, spaces, newlines and empty
	// names never make two event sequences encode alike.
	seqs := [][]repro.InlineEvent{
		nil,
		{{}},
		{{}, {}},
		{{U: "a b", V: "c", T: 1}},
		{{U: "a", V: "b c", T: 1}},
		{{U: `a"`, V: "b", T: 1}},
		{{U: "a", V: `"b`, T: 1}},
		{{U: `a" "b`, V: "", T: 1}},
		{{U: "a\n", V: "b", T: 1}},
		{{U: "a", V: "\nb", T: 1}},
		{{U: "a\nb", V: "c", T: 1}},
		{{U: "", V: "ab", T: 1}},
		{{U: "ab", V: "", T: 1}},
		{{U: "a", V: "b", T: 1}},
		{{U: "a", V: "b", T: 1}, {}},
		{{U: "a", V: "b", T: 1}, {U: "a", V: "b", T: 1}},
		{{U: "a", V: "b", T: 11}},
		{{U: "a", V: "b", T: -1}},
	}
	seen := make(map[string]int, len(seqs))
	for i, seq := range seqs {
		h := InlineHash(seq)
		if j, dup := seen[h]; dup {
			t.Fatalf("event sequences %q and %q hash alike", seqs[j], seq)
		}
		seen[h] = i
	}
}

// hintFields are the PlanSpec fields, by wire name, that resultKey
// leaves out: execution hints the engine pins results bit-identical
// across.
var hintFields = []string{"workers", "max_inflight", "elongation_spill"}

// jsonNames maps a struct type's fields to their wire names.
func jsonNames(t *testing.T, typ reflect.Type) map[string]string {
	t.Helper()
	out := make(map[string]string, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			t.Fatalf("%s.%s has no wire name", typ.Name(), f.Name)
		}
		out[name] = f.Name
	}
	return out
}

// TestSpecKeyCoversPlanSpec pins the cache key's contract: every
// PlanSpec field is either part of resultKey or a listed execution
// hint — a new field cannot silently stay out of the key. Inline
// events enter the key as the stream identity (InlineHash) SpecKey is
// handed.
func TestSpecKeyCoversPlanSpec(t *testing.T) {
	keyed := jsonNames(t, reflect.TypeOf(resultKey{}))
	hints := make(map[string]bool, len(hintFields))
	for _, h := range hintFields {
		hints[h] = true
	}
	spec := jsonNames(t, reflect.TypeOf(repro.PlanSpec{}))
	for name, field := range spec {
		_, inKey := keyed[name]
		switch {
		case name == "inline":
		case inKey && hints[name]:
			t.Errorf("PlanSpec.%s (%q) is both keyed and listed as a hint", field, name)
		case !inKey && !hints[name]:
			t.Errorf("PlanSpec.%s (%q) is neither in resultKey nor a listed execution hint", field, name)
		}
	}
	for _, h := range hintFields {
		if _, ok := spec[h]; !ok {
			t.Errorf("hint %q is not a PlanSpec field", h)
		}
	}
}

// TestExecutionHintsAreResultNeutral pins what leaving the hints out
// of the key relies on: toggling any one of them on a refined,
// windowed spec with elongation changes neither the key nor a single
// byte of the encoded report.
func TestExecutionHintsAreResultNeutral(t *testing.T) {
	base := smallSpec(t, 17)
	base.Metrics = []string{"occupancy", "elongation"}
	base.Refine = 3
	base.Windows = []repro.Window{{Start: 0, End: 10_000}, {Start: 10_000, End: 20_000}}
	toggles := map[string]func(*repro.PlanSpec){
		"workers":          func(s *repro.PlanSpec) { s.Workers = 1 },
		"max_inflight":     func(s *repro.PlanSpec) { s.MaxInFlight = 1 },
		"elongation_spill": func(s *repro.PlanSpec) { s.ElongationSpill = 1 },
	}
	if len(toggles) != len(hintFields) {
		t.Fatalf("%d toggles for %d hints", len(toggles), len(hintFields))
	}
	run := func(spec *repro.PlanSpec) (string, []byte, *repro.Report) {
		t.Helper()
		key, err := SpecKey(spec, InlineHash(spec.Inline))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := spec.NewPlan()
		if err != nil {
			t.Fatal(err)
		}
		defer plan.Close()
		rep, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		return key, data, rep
	}
	wantKey, want, rep := run(base)
	if rep.NumWindows() != 2 || len(rep.Elongation()) == 0 || len(rep.Occupancy()) <= base.GridPoints {
		t.Fatalf("base spec does not exercise windows, elongation and refinement: %d windows, %d elongation points, %d occupancy points",
			rep.NumWindows(), len(rep.Elongation()), len(rep.Occupancy()))
	}
	for _, h := range hintFields {
		toggle, ok := toggles[h]
		if !ok {
			t.Fatalf("no toggle for hint %q", h)
		}
		spec := *base
		toggle(&spec)
		key, got, _ := run(&spec)
		if key != wantKey {
			t.Errorf("%s changed the spec key", h)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed the report bytes", h)
		}
	}
}
