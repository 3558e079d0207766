package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/linkstream"
)

// columnarOf encodes the sorted stream as a columnar view with a small
// skip stride so windowed tests exercise the skip index.
func columnarOf(t testing.TB, s *linkstream.Stream) *linkstream.Columnar {
	t.Helper()
	sc := s.Clone()
	sc.Sort()
	var buf bytes.Buffer
	if err := sc.WriteColumnar(&buf, linkstream.ColumnarOptions{SkipEvery: 8}); err != nil {
		t.Fatal(err)
	}
	c, err := linkstream.OpenColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunSourceColumnarMatchesStream pins the StreamSource contract:
// one RunSource pass over a sorted columnar view delivers bit-identical
// observer products to the RunWindowed pass over the in-memory stream
// it was written from — whole-stream and windowed segments, directed
// and undirected — while skipping the engine's sort pass (counted) and
// resolving windowed hulls through the skip index.
func TestRunSourceColumnarMatchesStream(t *testing.T) {
	for _, directed := range []bool{false, true} {
		s := seededStream(t, 7, 3, 4000, 9)
		col := columnarOf(t, s)
		segs := func() ([]SegmentObserver, []*probe) {
			probes := []*probe{newProbe(allNeeds()), newProbe(allNeeds())}
			return []SegmentObserver{
				{Grid: []int64{5, 80, 1200, 4000}, Observers: []Observer{probes[0]}},
				{Start: 500, End: 2600, Grid: []int64{11, 300}, Observers: []Observer{probes[1]}},
			}, probes
		}
		opt := Options{Directed: directed, Workers: 3, MaxInFlight: 2}

		streamSegs, streamProbes := segs()
		if err := RunWindowed(context.Background(), s.Clone(), opt, streamSegs...); err != nil {
			t.Fatal(err)
		}
		ResetBuildStats()
		var st RunStats
		copt := opt
		copt.Stats = &st
		colSegs, colProbes := segs()
		if err := RunSource(context.Background(), col, copt, colSegs...); err != nil {
			t.Fatal(err)
		}

		if SortSkipCount() != 1 || st.SortSkips != 1 || st.Passes != 1 {
			t.Fatalf("directed=%v: SortSkipCount=%d Stats.SortSkips=%d Passes=%d, want 1/1/1",
				directed, SortSkipCount(), st.SortSkips, st.Passes)
		}
		for i := range streamProbes {
			a, b := streamProbes[i], colProbes[i]
			if a.view.T0 != b.view.T0 || a.view.T1 != b.view.T1 || len(a.view.Events) != len(b.view.Events) {
				t.Fatalf("directed=%v segment %d: views differ: [%d,%d]x%d vs [%d,%d]x%d", directed, i,
					a.view.T0, a.view.T1, len(a.view.Events), b.view.T0, b.view.T1, len(b.view.Events))
			}
			for j := range a.view.Events {
				if a.view.Events[j] != b.view.Events[j] {
					t.Fatalf("directed=%v segment %d event %d: %+v vs %+v", directed, i, j,
						a.view.Events[j], b.view.Events[j])
				}
			}
			if !sameTripMultiset(a.stream, b.stream) {
				t.Fatalf("directed=%v segment %d: stream trips differ", directed, i)
			}
			for j := range a.periods {
				pa, pb := a.periods[j], b.periods[j]
				if pa == nil || pb == nil {
					t.Fatalf("directed=%v segment %d period %d missing (%v, %v)", directed, i, j, pa == nil, pb == nil)
				}
				if pa.delta != pb.delta || pa.numWindows != pb.numWindows ||
					pa.distances != pb.distances || pa.windows != pb.windows {
					t.Fatalf("directed=%v segment %d period %d: scalar products differ", directed, i, j)
				}
				if !reflect.DeepEqual(pa.occ, pb.occ) {
					t.Fatalf("directed=%v segment %d period %d: occupancies differ", directed, i, j)
				}
				if !sameTripMultiset(pa.trips, pb.trips) {
					t.Fatalf("directed=%v segment %d period %d: trips differ", directed, i, j)
				}
			}
		}
	}
}

// TestRunSourceWindowedHullUsesSkipIndex pins the out-of-core slicing
// promise: when every registered segment is windowed, the engine
// materialises one hull through the columnar skip index (a slice hit)
// and the in-memory stream path never reports a sort skip.
func TestRunSourceWindowedHullUsesSkipIndex(t *testing.T) {
	s := seededStream(t, 6, 3, 3000, 10)
	col := columnarOf(t, s)
	segs := []SegmentObserver{
		{Start: 200, End: 1500, Grid: []int64{50}, Observers: []Observer{newProbe(allNeeds())}},
		{Start: 1000, End: 2400, Grid: []int64{70}, Observers: []Observer{newProbe(allNeeds())}},
	}
	ResetBuildStats()
	if err := RunSource(context.Background(), col, Options{Workers: 2}, segs...); err != nil {
		t.Fatal(err)
	}
	if col.SliceHits() != 1 {
		t.Fatalf("SliceHits = %d, want 1 (one hull materialisation)", col.SliceHits())
	}
	if SortSkipCount() != 1 {
		t.Fatalf("SortSkipCount = %d, want 1", SortSkipCount())
	}

	// The in-memory source sorts; no skip is ever counted.
	ResetBuildStats()
	var st RunStats
	if err := RunWindowed(context.Background(), s.Clone(), Options{Workers: 2, Stats: &st},
		SegmentObserver{Start: 200, End: 1500, Grid: []int64{50}, Observers: []Observer{newProbe(allNeeds())}}); err != nil {
		t.Fatal(err)
	}
	if SortSkipCount() != 0 || st.SortSkips != 0 {
		t.Fatalf("stream path counted sort skips: counter=%d stats=%d", SortSkipCount(), st.SortSkips)
	}
}
