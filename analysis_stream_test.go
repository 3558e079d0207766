package repro

// Out-of-core ingest equivalence (the acceptance pin of the columnar
// linkstream work): a Plan.Run over a tsconvert-style mapped columnar
// file must be bit-identical — every scale result, every curve point,
// every window, every adaptive segment — to the same plan over the
// text-parsed in-memory stream, while the engine's sort pass is skipped
// on every pass of the mapped run and on none of the in-memory run.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/synth"
)

// columnarPathOf writes the stream's sorted columnar encoding (small
// skip stride, so windowed slicing exercises the skip index) to a temp
// file and returns its path.
func columnarPathOf(t *testing.T, s *Stream) string {
	t.Helper()
	sc := s.Clone()
	sc.Sort()
	path := filepath.Join(t.TempDir(), "stream.lsc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.WriteColumnar(f, linkstream.ColumnarOptions{SkipEvery: 64}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPlanStreamPathMatchesInMemory(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s, err := synth.TimeUniform(synth.TimeUniformConfig{
				Nodes: 9, LinksPerPair: 3, T: 20_000, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			t0, t1, _ := s.Span()
			mid := (t0 + t1) / 2
			checkStreamPathParity(t, fmt.Sprintf("windows directed=%v seed=%d", directed, seed), s,
				WithDirected(directed),
				WithMetrics(MetricOccupancy, MetricClassic, MetricDistance,
					MetricTransitionLoss, MetricElongation),
				WithGridPoints(8),
				WithRefine(2),
				WithWorkers(3),
				WithMaxInFlight(2),
				WithWindows(Window{Start: t0, End: mid}, Window{Start: mid, End: t1 + 1}),
				WithElongationSpill(1), // spill-forced, still bit-exact
			)

			// Adaptive plans slice their activity segments out of the
			// mapped file through the same skip index.
			two, err := synth.TwoMode(synth.TwoModeConfig{
				Nodes: 10, N1: 14, N2: 1, T1: 4000, T2: 6000, Alternations: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkStreamPathParity(t, fmt.Sprintf("adaptive directed=%v seed=%d", directed, seed), two,
				WithDirected(directed),
				WithMetrics(MetricOccupancy, MetricClassic),
				WithGridPoints(8),
				WithRefine(2),
				WithWorkers(3),
				WithMaxInFlight(2),
				WithAdaptive(AdaptiveConfig{Bins: 60}),
			)
		}
	}
}

// checkStreamPathParity runs the plan over s in memory and over its
// columnar encoding through WithStreamPath, and requires identical
// reports, identical pass and build counts, and a skipped sort on
// every pass of the mapped run only.
func checkStreamPathParity(t *testing.T, name string, s *Stream, opts ...Option) {
	t.Helper()
	path := columnarPathOf(t, s)
	memRep := runPlan(t, s, opts...)
	mapPlan, err := NewAnalysis(nil, append(opts, WithStreamPath(path))...)
	if err != nil {
		t.Fatal(err)
	}
	defer mapPlan.Close()
	mapRep, err := mapPlan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	memRes, memOK := memRep.Scale()
	mapRes, mapOK := mapRep.Scale()
	if memOK != mapOK || !reflect.DeepEqual(memRes, mapRes) {
		t.Fatalf("%s: scale diverged:\n mem %+v\n map %+v", name, memRes, mapRes)
	}
	if !reflect.DeepEqual(memRep.Global(), mapRep.Global()) {
		t.Fatalf("%s: global curves diverged", name)
	}
	if !reflect.DeepEqual(memRep.Windows(), mapRep.Windows()) {
		t.Fatalf("%s: window reports diverged", name)
	}
	if !reflect.DeepEqual(memRep.Adaptive(), mapRep.Adaptive()) {
		t.Fatalf("%s: adaptive analyses diverged:\n mem %+v\n map %+v", name, memRep.Adaptive(), mapRep.Adaptive())
	}

	memSt, mapSt := memRep.EngineStats(), mapRep.EngineStats()
	if memSt.SortSkips != 0 {
		t.Fatalf("%s: in-memory run skipped %d sorts", name, memSt.SortSkips)
	}
	if mapSt.SortSkips == 0 || mapSt.SortSkips != mapSt.Passes {
		t.Fatalf("%s: mapped run skipped %d sorts over %d passes, want every pass",
			name, mapSt.SortSkips, mapSt.Passes)
	}
	if memSt.Passes != mapSt.Passes || memSt.Builds != mapSt.Builds {
		t.Fatalf("%s: pass/build counts diverged: mem %d/%d, map %d/%d",
			name, memSt.Passes, memSt.Builds, mapSt.Passes, mapSt.Builds)
	}
}

// TestPlanStreamPathTextAndBinary pins the non-columnar WithStreamPath
// paths: text and LSB files are parsed into memory behind the same
// option, and produce the same report (with no sort skips).
func TestPlanStreamPathTextAndBinary(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 7, LinksPerPair: 2, T: 5_000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	textPath := filepath.Join(dir, "stream.txt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteTo(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	lsbPath := filepath.Join(dir, "stream.lsb")
	bf, err := os.Create(lsbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBinary(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	want, err := NewAnalysis(s, WithGridPoints(6))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := want.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{textPath, lsbPath} {
		plan, err := NewAnalysis(nil, WithGridPoints(6), WithStreamPath(path))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Global(), wantRep.Global()) {
			t.Fatalf("%s: report diverged from in-memory", path)
		}
		if rep.EngineStats().SortSkips != 0 {
			t.Fatalf("%s: parsed plan reported sort skips", path)
		}
		plan.Close()
	}

	// Error surface: missing file, and both inputs at once.
	if _, err := NewAnalysis(nil, WithStreamPath(filepath.Join(dir, "missing.lsc"))); err == nil {
		t.Fatal("missing stream file must fail plan construction")
	}
	if _, err := NewAnalysis(s, WithStreamPath(textPath)); err == nil {
		t.Fatal("WithStreamPath plus a non-nil stream must fail")
	}
}
