package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// FuzzPlanCodec throws arbitrary bytes at the plan decoder and pins
// three properties: decoding never panics, whatever decodes re-encodes
// and decodes again to the same spec (round-trip equality), and
// messages carrying any version other than CodecVersion are rejected
// with an error naming the version field. The seed corpus covers the
// valid shapes plus the rejection edges (truncations, mutated
// versions, unknown fields).
func FuzzPlanCodec(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"v":1,"plan":{}}`),
		[]byte(`{"v":1,"plan":{"metrics":["occupancy","loss"],"directed":true}}`),
		[]byte(`{"v":1,"plan":{"stream":{"path":"a.lsc","hash":"ff"},"grid":[60,3600]}}`),
		[]byte(`{"v":1,"plan":{"inline":[{"u":"a","v":"b","t":1}],"workers":3}}`),
		[]byte(`{"v":1,"plan":{"windows":[{"start":0,"end":9}],"adaptive":{"bins":96}}}`),
		// Empty arrays: omitempty drops them on re-encode, so they must
		// decode to nil for the round trip to hold.
		[]byte(`{"v":1,"plan":{"metrics":[]}}`),
		[]byte(`{"v":1,"plan":{"inline":[]}}`),
		[]byte(`{"v":1,"plan":{"grid":[]}}`),
		[]byte(`{"v":1,"plan":{"selectors":[]}}`),
		[]byte(`{"v":1,"plan":{"windows":[]}}`),
		[]byte(`{"v":1,"plan":{"windows":[{"start":0,"end":9,"grid":[]}]}}`),
		[]byte(`{"v":2,"plan":{}}`),
		[]byte(`{"v":1}`),
		[]byte(`{"v":1,"plan":{"nope":1}}`),
		[]byte(`{"v":1,"plan":{}`),
		[]byte(`{"v":1,"plan":{}}garbage`),
		[]byte(``),
		[]byte(`[]`),
		[]byte(`"v"`),
	}
	if spec, err := EncodePlan(fullSpec()); err == nil {
		seed = append(seed, spec)
	}
	for _, s := range seed {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodePlan(data) // must not panic, whatever data is
		if err != nil {
			// Version errors must name the field and the version spoken.
			if strings.Contains(err.Error(), "unsupported codec version") &&
				!strings.Contains(err.Error(), "v: unsupported codec version") {
				t.Fatalf("version rejection does not name the v field: %v", err)
			}
			return
		}
		// Anything accepted must round-trip exactly.
		out, err := EncodePlan(spec)
		if err != nil {
			t.Fatalf("decoded spec failed to encode: %v", err)
		}
		again, err := DecodePlan(out)
		if err != nil {
			t.Fatalf("re-encoded spec failed to decode: %v\nwire: %s", err, out)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip mismatch:\nfirst  %+v\nsecond %+v", spec, again)
		}
		// And its cache key must be derivable and stable.
		k1, err := SpecKey(spec, "fuzz")
		if err != nil {
			t.Fatalf("spec key: %v", err)
		}
		k2, err := SpecKey(again, "fuzz")
		if err != nil {
			t.Fatalf("spec key (second): %v", err)
		}
		if k1 != k2 {
			t.Fatal("round-tripped spec derived a different cache key")
		}
	})
}

// FuzzInlineEvents checks the inline-event parser,
// repro.InlineEvents.UnmarshalJSON, against the encoding/json decoding
// it replaces: on every input both accept or both reject, and what
// they accept decodes to the same events.
func FuzzInlineEvents(f *testing.F) {
	for _, s := range []string{
		`[{"u":"a","v":"b","t":1},{"u":"b","v":"c","t":2}]`,
		`[{"u":"a\"b","v":"c\\d","t":1}]`,
		`[{"u":"\u00e9","v":"\ud83d\ude00","t":1}]`,
		`[{"u":"\x","v":"b","t":1}]`,
		"[{\"u\":\"a\xff\xfe\",\"v\":\"\xed\xa0\x80\",\"t\":1}]",
		"[{\"u\xff\":\"a\",\"v\":\"b\",\"t\":1}]",
		"[{\"u\":\"a\x01\",\"v\":\"b\",\"t\":1}]",
		`[{"U":"a","V":"b","T":1}]`,
		`[{"\u0074":1,"\u0055":"a"}]`,
		`[{"u":"a","u":"b","U":"c","t":1,"t":2}]`,
		`[null,{"u":"a","v":"b","t":1},null]`,
		`[{"t":5},{"v":"b"},{}]`,
		`[{"u":"a","v":null,"t":null}]`,
		`[{"u":"a","v":"b","t":1.0}]`,
		`[{"u":"a","v":"b","t":1e3}]`,
		`[{"u":"a","v":"b","t":-0}]`,
		`[{"u":"a","v":"b","t":01}]`,
		`[{"u":"a","v":"b","t":9223372036854775807}]`,
		`[{"u":"a","v":"b","t":9223372036854775808}]`,
		`[{"u":"a","v":"b","t":-9223372036854775808}]`,
		`[{"u":"a","v":"b","t":-9223372036854775809}]`,
		`[{"u":"a","v":"b","t":"1"}]`,
		`[{"u":1,"v":"b","t":1}]`,
		`[{"u":"a","v":"b","t":1,"w":2}]`,
		`[{"u":"a","v":"b","t":1,"uu":null}]`,
		`[{"w":{"u":"a"}}]`,
		`[]`,
		`[[]]`,
		`[{}]`,
		`[1]`,
		`{}`,
		`null`,
		`nul`,
		``,
		`[{"\x":1}]`,
		`[{"u" "a"}]`,
		`[{"u":"a" "v":"b"}]`,
		`[{"u":"a}]`,
		`[{"u":"a",}]`,
		`[{"u":"a"},]`,
		`[{"u":"a"}]]`,
		`[{"u":"a"}`,
		" \t\r\n[ \t\r\n{ \"u\" : \"a\" ,\n\"v\"\t:\r\"b\" , \"t\" : 1 } , null ] \n",
	} {
		f.Add([]byte(s))
	}
	// Each input decodes into an empty slice, and into one of length 1
	// whose backing array holds a second element: decoding overwrites
	// the elements it reaches, field by field.
	bases := []func() []repro.InlineEvent{
		func() []repro.InlineEvent { return nil },
		func() []repro.InlineEvent {
			return []repro.InlineEvent{{U: "x", V: "y", T: 1}, {U: "z", V: "w", T: 2}}[:1]
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range bases {
			got := repro.InlineEvents(base())
			gotErr := got.UnmarshalJSON(data)
			want, wantErr := oracleInlineEvents(data, base())
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("parser error %v, encoding/json error %v, on %q", gotErr, wantErr, data)
			}
			if gotErr == nil && !reflect.DeepEqual([]repro.InlineEvent(got), want) {
				t.Fatalf("parser decoded %#v, encoding/json %#v, from %q", got, want, data)
			}
		}
	})
}

// oracleInlineEvents decodes data into events the way encoding/json
// decodes an inline array: as []repro.InlineEvent, a type without the
// custom decoder, with unknown fields disallowed and nothing allowed
// after the value.
func oracleInlineEvents(data []byte, events []repro.InlineEvent) ([]repro.InlineEvent, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&events); err != nil {
		return nil, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the value: %v %v", tok, err)
	}
	return events, nil
}

// FuzzInlineLocator checks the plan and shard decoders, whose locator
// reads the inline arrays in place and leaves the rest of the body to
// encoding/json, against encoding/json alone: decodeEnvelope on the
// whole body, then canonicalize. On every input both accept or both
// reject with the same error, what they accept is the same, and
// whenever encoding/json accepts, the locator walked the body to the
// end: its fallback to the whole-body pass must never hide a walk that
// gives up on a valid message.
func FuzzInlineLocator(f *testing.F) {
	const ev = `{"u":"a","v":"b","t":1}`
	for _, s := range []string{
		`{"v":1,"plan":{"inline":[` + ev + `],"metrics":["degree"]}}`,
		// Repeated keys apply in document order to one slice: the second
		// array overwrites the first's elements field by field.
		`{"v":1,"plan":{"inline":[` + ev + `,{"u":"c","v":"d","t":2}],"inline":[{"u":"x"}]}}`,
		`{"v":1,"plan":{"inline":[` + ev + `,{"u":"c","v":"d","t":2}],"inline":[{"u":"x"}],"inline":[{},{},{"t":3}]}}`,
		`{"v":1,"plan":{"inline":[` + ev + `]},"plan":{"grid_points":8}}`,
		// A null payload resets the spec, and its inline events with it.
		`{"v":1,"plan":{"inline":[` + ev + `]},"plan":null,"plan":{"metrics":["degree"]}}`,
		`{"v":1,"plan":{"inline":[` + ev + `]},"plan":null}`,
		// Keys match as encoding/json matches them.
		`{"v":1,"plan":{"INLINE":[` + ev + `],"Inline":[{"t":2}],"inline":[{"v":"c"}]}}`,
		`{"v":1,"PLAN":{"iNlInE":[` + ev + `]}}`,
		`{"v":1,"pl\u0061n":{"\u0069nline":[` + ev + `]}}`,
		`{"v":1,"plan":{"inline\u0000":[` + ev + `]}}`,
		`{"v":1,"plan":{"ınline":[` + ev + `]}}`,
		`{"v":1,"ſhard":{"lane":1,"ſpec":{"inline":[` + ev + `]}}}`,
		`{"v":1,"shard":{"lane":2,"spec":{"inline":[` + ev + `]}}}`,
		`{"v":1,"shard":{"spec":{"inline":[` + ev + `]},"spec":null,"spec":{}}}`,
		`{"v":1,"shard":{"spec":{"inline":[` + ev + `]}},"shard":null,"shard":{"spec":{}}}`,
		`{"v":1,"shard":{"spec":{"inline":[` + ev + `]}},"shard":{"lane":3}}`,
		`{"v":1,"shard":{"spec":{"inline":[` + ev + `]},"spec":5}}`,
		// inline keys the spec does not own.
		`{"v":1,"plan":{"stream":{"path":"a.lsc","inline":[` + ev + `]}}}`,
		`{"v":1,"plan":{"windows":[{"start":0,"end":9,"inline":[` + ev + `]}]}}`,
		`{"v":1,"inline":[` + ev + `],"plan":{}}`,
		`{"v":1,"report":{"inline":[` + ev + `]},"plan":{}}`,
		`{"v":1,"plan":[{"inline":[` + ev + `]}]}`,
		// The text of an inline key inside strings.
		`{"v":1,"plan":{"metrics":["\"inline\":[{\"u\":\"a\"}]"],"inline":[` + ev + `]}}`,
		`{"v":1,"plan":{"stream":{"path":"\"inline\":["}}}`,
		`{"v":1,"plan":{"stream":{"path":"\\"},"inline":[` + ev + `]}}`,
		`{"v":1,"plan":{"stream":{"path":"x\""},"inline":[` + ev + `]}}`,
		`{"v":1,"plan":{"metrics":["a\"],\"inline\":[{\"u\":\"z\"}],\"b"],"inline":[` + ev + `]}}`,
		// inline as null, [], an object and a number.
		`{"v":1,"plan":{"inline":null}}`,
		`{"v":1,"plan":{"inline":[` + ev + `],"inline":null}}`,
		`{"v":1,"plan":{"inline":[]}}`,
		`{"v":1,"plan":{"inline":{}}}`,
		`{"v":1,"plan":{"inline":1}}`,
		`{"v":1,"plan":{"inline":nullx}}`,
		// White space around every colon and comma.
		" \t{ \"v\" : 1 ,\r\n\"plan\" :\n{ \"inline\"\t:\t[ " + ev + " ] , \"grid\" : [ 60 ] } } \n",
		// Trailing data, truncation, and nesting the walk must skip.
		`{"v":1,"plan":{"inline":[` + ev + `]}}x`,
		`{"v":1,"plan":{"inline":[` + ev + `]}}{}`,
		`{"v":1,"plan":{"inline":[` + ev + `]}`,
		`{"v":1,"plan":{"inline":[` + ev,
		`{"v":1,"plan":{"adaptive":{"bins":[[{"a":"}"}]]},"inline":[` + ev + `]}}`,
		// A message of another version is rejected naming v, even when
		// its inline array holds an unknown event field.
		`{"v":2,"plan":{"inline":[{"w":1}]}}`,
		`{"v":2,"plan":{"inline":[` + ev + `],"future_knob":1}}`,
		`{"v":2,"shard":{"spec":{"inline":[{"w":1}]}}}`,
		`{"plan":{"inline":[` + ev + `]},"v":1}`,
	} {
		f.Add([]byte(s))
	}
	events := []repro.InlineEvent{{U: "a", V: "b", T: 1}, {U: "b", V: "c", T: 2}}
	if data, err := EncodePlan(&repro.PlanSpec{Inline: events, Metrics: []string{"degree"}, GridPoints: 8}); err == nil {
		f.Add(data)
	}
	if data, err := EncodeShard(&Shard{Lane: 1, Spec: &repro.PlanSpec{Inline: events, WindowsOnly: true}}); err == nil {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, planErr := DecodePlan(data)
		wantPlan, wantPlanErr := decodeEnvelope[repro.PlanSpec]("plan", data)
		if wantPlanErr == nil {
			canonicalize(wantPlan)
		}
		checkLocated(t, "plan", data, planInline, plan, wantPlan, planErr, wantPlanErr)

		shard, shardErr := DecodeShard(data)
		wantShard, wantShardErr := decodeEnvelope[Shard]("shard", data)
		switch {
		case wantShardErr != nil:
		case wantShard.Spec == nil:
			wantShardErr = errors.New("serve: shard: missing spec")
		default:
			canonicalize(wantShard.Spec)
		}
		checkLocated(t, "shard", data, shardInline, shard, wantShard, shardErr, wantShardErr)
	})
}

// checkLocated compares one decoder's answer with encoding/json's and
// checks that the locator walked every body encoding/json accepts.
func checkLocated[T any](t *testing.T, kind string, data []byte, path []string, got, want *T, gotErr, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: decoder error %v, encoding/json error %v, on %q", kind, gotErr, wantErr, data)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: decoder error %q, encoding/json error %q, on %q", kind, gotErr, wantErr, data)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoder decoded %+v, encoding/json %+v, from %q", kind, got, want, data)
	case !locatorWalked(data, path):
		t.Fatalf("%s: the locator gave up on %q, which encoding/json accepts", kind, data)
	}
}

// locatorWalked reports whether the locator walked data to the end.
func locatorWalked(data []byte, path []string) bool {
	_, _, ok := splitInline(data, path)
	return ok
}

// FuzzReportCodec pins the same never-panic and round-trip properties
// for report envelopes.
func FuzzReportCodec(f *testing.F) {
	f.Add([]byte(`{"v":1,"report":{"global":{}}}`))
	f.Add([]byte(`{"v":1,"report":{"scale":{"gamma":3600,"score":0.9},"global":{}}}`))
	f.Add([]byte(`{"v":2,"report":{"global":{}}}`))
	f.Add([]byte(`{"v":1,"report":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		out, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("decoded report failed to encode: %v", err)
		}
		if _, err := DecodeReport(out); err != nil {
			t.Fatalf("re-encoded report failed to decode: %v\nwire: %s", err, out)
		}
	})
}
