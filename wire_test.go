package repro

// The wire surface's pins: PlanSpec options fidelity (a spec builds the
// same plan the equivalent hand-written options build), and golden
// report JSON — the serving layer's byte-identity guarantee rests on
// Report's wire encoding being stable across releases AND across
// execution knobs, so the goldens are compared against runs at several
// worker counts and in-flight budgets. Regenerate with:
//
//	go test -run 'TestReportGolden$' -update-golden
//
// and review the diff like any contract change.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/linkstream"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files with current output")

func goldenWorkload(t testing.TB, seed int64) *Stream {
	t.Helper()
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 14, LinksPerPair: 6, T: 30_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func specForGolden(seed int64, directed bool) *PlanSpec {
	return &PlanSpec{
		Metrics:    []string{"occupancy", "classic", "distance", "loss", "elongation"},
		Directed:   directed,
		GridPoints: 8,
		Refine:     2,
	}
}

// TestReportGolden pins the wire bytes of Report across 3 seeds ×
// directed/undirected, and — the determinism half of the contract —
// checks every (workers, max in-flight) combination reproduces the
// golden bytes exactly; max in-flight 1 keeps one period resident at a
// time, 0 the engine default.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is not -short")
	}
	type knobs struct {
		workers, maxInFlight int
	}
	matrix := []knobs{{1, 1}, {1, 0}, {3, 1}, {3, 0}}

	for _, seed := range []int64{101, 202, 303} {
		for _, directed := range []bool{false, true} {
			name := fmt.Sprintf("seed%d_%s", seed, map[bool]string{false: "undirected", true: "directed"}[directed])
			t.Run(name, func(t *testing.T) {
				spec := specForGolden(seed, directed)
				var reference []byte
				for _, k := range matrix {
					s := goldenWorkload(t, seed)
					opts, err := spec.Options()
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, WithWorkers(k.workers), WithMaxInFlight(k.maxInFlight))
					plan, err := NewAnalysis(s, opts...)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := plan.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					data, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					if reference == nil {
						reference = data
					} else if !bytes.Equal(data, reference) {
						t.Fatalf("report bytes at workers=%d max-inflight=%d differ from workers=%d max-inflight=%d",
							k.workers, k.maxInFlight, matrix[0].workers, matrix[0].maxInFlight)
					}
				}

				golden := filepath.Join("testdata", "report_"+name+".golden.json")
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					var pretty bytes.Buffer
					if err := json.Indent(&pretty, reference, "", "  "); err != nil {
						t.Fatal(err)
					}
					pretty.WriteByte('\n')
					if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (regenerate with -update-golden)", err)
				}
				var compact bytes.Buffer
				if err := json.Compact(&compact, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reference, compact.Bytes()) {
					t.Fatalf("report wire bytes drifted from %s (regenerate with -update-golden and review)\n got %s\nwant %s",
						golden, reference, compact.Bytes())
				}
			})
		}
	}
}

// TestReportGoldenMatchesReference checks the golden occupancy curves
// against the oracle rather than against the engine that wrote them:
// at every ∆ of each golden's curve, core.SweepReference — trips by
// temporal.CollectTripsCSR, occupancy by Trip.Occupancy() — must give
// the same trip count and bit-identical scores.
func TestReportGoldenMatchesReference(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		for _, directed := range []bool{false, true} {
			name := fmt.Sprintf("seed%d_%s", seed, map[bool]string{false: "undirected", true: "directed"}[directed])
			t.Run(name, func(t *testing.T) {
				data, err := os.ReadFile(filepath.Join("testdata", "report_"+name+".golden.json"))
				if err != nil {
					t.Fatal(err)
				}
				var rep Report
				if err := json.Unmarshal(data, &rep); err != nil {
					t.Fatal(err)
				}
				curve := rep.Occupancy()
				if len(curve) == 0 {
					t.Fatal("golden has no occupancy curve")
				}
				deltas := make([]int64, len(curve))
				for i, p := range curve {
					deltas[i] = p.Delta
				}
				want, err := core.SweepReference(goldenWorkload(t, seed), deltas, Options{Directed: directed})
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range curve {
					w := want[i]
					if p.Trips != w.Trips || len(p.Scores) != len(w.Scores) {
						t.Fatalf("delta %d: golden %d trips, %d scores; reference %d trips, %d scores",
							p.Delta, p.Trips, len(p.Scores), w.Trips, len(w.Scores))
					}
					for si := range w.Scores {
						if math.Float64bits(p.Scores[si]) != math.Float64bits(w.Scores[si]) {
							t.Fatalf("delta %d: golden score %v, reference %v", p.Delta, p.Scores[si], w.Scores[si])
						}
					}
				}
			})
		}
	}
}

// TestReportJSONRoundTrip: decode(encode(report)) carries the same
// results (and zero engine stats — instrumentation does not travel).
func TestReportJSONRoundTrip(t *testing.T) {
	s := goldenWorkload(t, 7)
	plan, err := NewAnalysis(s, WithGridPoints(6), WithMetrics(MetricOccupancy, MetricTransitionLoss), WithWindows(Window{Start: 0, End: 15_000}, Window{Start: 15_000, End: 30_000}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.EngineStats() != (EngineStats{}) {
		t.Fatal("engine stats travelled over the wire")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("report did not survive a round trip:\n first %s\nsecond %s", data, again)
	}
	gotScale, gotOK := back.Scale()
	wantScale, wantOK := rep.Scale()
	if gotOK != wantOK || gotScale.Gamma != wantScale.Gamma {
		t.Fatalf("scale drifted over the wire: got (%v,%v) want (%v,%v)", gotScale.Gamma, gotOK, wantScale.Gamma, wantOK)
	}
	if back.NumWindows() != rep.NumWindows() {
		t.Fatalf("windows drifted: got %d want %d", back.NumWindows(), rep.NumWindows())
	}
}

// TestPlanSpecOptionsFidelity: a spec's Options build a plan that runs
// to the same wire bytes as the equivalent hand-written options.
func TestPlanSpecOptionsFidelity(t *testing.T) {
	s1 := goldenWorkload(t, 17)
	s2 := goldenWorkload(t, 17)

	spec := &PlanSpec{
		Metrics:    []string{"occupancy", "loss"},
		Selectors:  []string{"shannon-entropy", "mk-proximity"},
		Directed:   true,
		GridPoints: 7,
		MinDelta:   2,
		Refine:     3,
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := NewAnalysis(s1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := ParseSelectors([]string{"shannon-entropy", "mk-proximity"})
	if err != nil {
		t.Fatal(err)
	}
	byHand, err := NewAnalysis(s2,
		WithMetrics(MetricOccupancy, MetricTransitionLoss),
		WithSelectors(sels...),
		WithDirected(true),
		WithGridPoints(7),
		WithMinDelta(2),
		WithRefine(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	repSpec, err := fromSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repHand, err := byHand.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(repSpec)
	b, _ := json.Marshal(repHand)
	if !bytes.Equal(a, b) {
		t.Fatalf("spec-built plan diverged from hand-built options:\nspec %s\nhand %s", a, b)
	}
}

// TestParseSelectors: names resolve, order preserved, unknown names
// error listing every known selector.
func TestParseSelectors(t *testing.T) {
	sels, err := ParseSelectors([]string{"shannon-entropy", "mk-proximity"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 2 || sels[0].Name() != "shannon-entropy" || sels[1].Name() != "mk-proximity" {
		t.Fatalf("selectors = %v", sels)
	}
	_, err = ParseSelectors([]string{"coin-flip"})
	if err == nil {
		t.Fatal("unknown selector accepted")
	}
	for _, known := range []string{"mk-proximity", "standard-deviation", "variation-coefficient", "shannon-entropy", "cre"} {
		if !contains(err.Error(), known) {
			t.Fatalf("error %q does not list %q", err, known)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestPlanSpecStreamValidation: exactly one of Stream and Inline.
func TestPlanSpecStreamValidation(t *testing.T) {
	if _, err := (&PlanSpec{}).NewPlan(); err == nil {
		t.Fatal("no-stream spec accepted")
	}
	both := &PlanSpec{
		Stream: &StreamRef{Path: "x"},
		Inline: []InlineEvent{{U: "a", V: "b", T: 1}},
	}
	if _, err := both.NewPlan(); err == nil {
		t.Fatal("both-streams spec accepted")
	}
}

// TestPlanStreamRef: a plan over a columnar path exposes its reference
// — path, fingerprint and span — and in-memory plans expose none.
func TestPlanStreamRef(t *testing.T) {
	s := goldenWorkload(t, 23)
	dir := t.TempDir()
	lsc := filepath.Join(dir, "w.lsc")
	f, err := os.Create(lsc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteColumnar(f, linkstream.ColumnarOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	plan, err := NewAnalysis(nil, WithStreamPath(lsc), WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	ref, ok := plan.StreamRef()
	if !ok {
		t.Fatal("columnar plan has no stream ref")
	}
	if ref.Path != lsc || ref.Hash == "" || ref.Events != s.NumEvents() {
		t.Fatalf("ref = %+v", ref)
	}

	memPlan, err := NewAnalysis(goldenWorkload(t, 23), WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := memPlan.StreamRef(); ok {
		t.Fatal("in-memory plan claims a stream ref")
	}

	// The ref round-trips into a spec that builds an equivalent plan.
	spec := &PlanSpec{Stream: &ref, GridPoints: 5}
	var specJSON bytes.Buffer
	if err := json.NewEncoder(&specJSON).Encode(spec); err != nil {
		t.Fatal(err)
	}
	plan2, err := spec.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	defer plan2.Close()
	ref2, ok := plan2.StreamRef()
	if !ok || ref2.Hash != ref.Hash {
		t.Fatalf("re-opened ref = %+v, want hash %s", ref2, ref.Hash)
	}

	if !reflect.DeepEqual(ref, ref2) {
		t.Fatalf("stream ref drifted on reopen: %+v vs %+v", ref, ref2)
	}
}
