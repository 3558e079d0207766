package sweep

import (
	"context"

	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/temporal"
)

// tripLess orders trips by every field, so two trip sets sorted with it
// compare field by field deterministically.
func tripLess(a, b temporal.Trip) bool {
	if a.V != b.V {
		return a.V < b.V
	}
	if a.U != b.U {
		return a.U < b.U
	}
	if a.Dep != b.Dep {
		return a.Dep < b.Dep
	}
	if a.Arr != b.Arr {
		return a.Arr < b.Arr
	}
	return a.Hops < b.Hops
}

func sortTrips(trips []temporal.Trip) {
	sort.Slice(trips, func(i, j int) bool { return tripLess(trips[i], trips[j]) })
}

// tinyStream builds a random workload on at most 12 nodes.
func tinyStream(t testing.TB, rng *rand.Rand) *linkstream.Stream {
	t.Helper()
	n := 3 + rng.Intn(10) // 3..12
	span := int64(50 + rng.Intn(2000))
	events := 20 + rng.Intn(150)
	s := linkstream.New()
	s.EnsureNodes(n)
	for k := 0; k < events; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		if err := s.AddID(int32(u), int32(v), rng.Int63n(span)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestWindowedMatchesNaiveSliceSweep is the brute-force cross-check of
// the windowed observer routing: for tiny random streams and random
// windows, every per-segment product of one fused RunWindowed pass is
// recomputed by the naive slice path — materialise the segment's
// sub-stream, aggregate it into a series, run the layered reference
// sweep — and compared field by field.
func TestWindowedMatchesNaiveSliceSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := tinyStream(t, rng)
		directed := rng.Intn(2) == 0
		t0, t1, _ := s.Span()

		// Random window set: the whole stream plus two random sub-windows
		// (possibly overlapping, never empty).
		type window struct{ start, end int64 }
		windows := []window{{0, 0}} // sentinel: whole stream
		for len(windows) < 3 {
			a := t0 + rng.Int63n(t1-t0+1)
			b := t0 + rng.Int63n(t1-t0+1)
			if a > b {
				a, b = b, a
			}
			b++ // half-open, non-empty window
			if len(s.SliceTime(a, b).Events()) == 0 {
				continue
			}
			windows = append(windows, window{a, b})
		}

		segments := make([]SegmentObserver, len(windows))
		probes := make([]*probe, len(windows))
		for i, w := range windows {
			// Grids differ per window to exercise per-segment routing.
			grid := []int64{1 + int64(i), 10 + int64(10*i), (t1 - t0 + 1)}
			probes[i] = newProbe(Needs{TripShards: true, Occupancies: true, Distances: true, WindowStats: true})
			segments[i] = SegmentObserver{Start: w.start, End: w.end, Grid: grid, Observers: []Observer{probes[i]}}
		}
		workers := 1 + rng.Intn(4)
		inFlight := rng.Intn(3)
		if err := RunWindowed(context.Background(), s, Options{Directed: directed, Workers: workers, MaxInFlight: inFlight}, segments...); err != nil {
			t.Fatal(err)
		}

		for i, w := range windows {
			sub := s
			if w.start < w.end {
				sub = s.SliceTime(w.start, w.end)
			}
			cfg := temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1}
			for pi, delta := range segments[i].Grid {
				rp := probes[i].periods[pi]
				if rp == nil {
					t.Fatalf("seed %d window %d: period %d not observed", seed, i, pi)
				}
				g, err := series.Aggregate(sub, delta, directed)
				if err != nil {
					t.Fatal(err)
				}
				layers := temporal.SeriesLayers(g)
				if rp.numWindows != g.NumWindows {
					t.Fatalf("seed %d window %d delta %d: %d windows, naive has %d",
						seed, i, delta, rp.numWindows, g.NumWindows)
				}
				wantTrips := temporal.CollectTrips(cfg, layers)
				gotTrips := append([]temporal.Trip(nil), rp.trips...)
				sortTrips(wantTrips)
				sortTrips(gotTrips)
				if len(gotTrips) != len(wantTrips) {
					t.Fatalf("seed %d window %d delta %d: %d trips, naive finds %d",
						seed, i, delta, len(gotTrips), len(wantTrips))
				}
				for k := range wantTrips {
					if gotTrips[k] != wantTrips[k] {
						t.Fatalf("seed %d window %d delta %d trip %d: %+v != naive %+v",
							seed, i, delta, k, gotTrips[k], wantTrips[k])
					}
				}
				if wantOcc := temporal.Occupancies(cfg, layers); !sameFloatMultiset(rp.occ, wantOcc) {
					t.Fatalf("seed %d window %d delta %d: occupancy multiset mismatch", seed, i, delta)
				}
				if wantDist := temporal.Distances(cfg, layers, 0, 1); rp.distances != wantDist {
					t.Fatalf("seed %d window %d delta %d: distances %+v != naive %+v",
						seed, i, delta, rp.distances, wantDist)
				}
				wantStats, err := g.ComputeStats()
				if err != nil {
					t.Fatal(err)
				}
				if rp.windows != wantStats.MeanDensity {
					t.Fatalf("seed %d window %d delta %d: mean density %v != naive %v",
						seed, i, delta, rp.windows, wantStats.MeanDensity)
				}
			}
		}
	}
}

// TestWindowedViewsAndRouting pins the per-segment stream views: each
// segment's observer sees exactly its own grid and its own slice of the
// shared event buffer, anchored at the segment's first event.
func TestWindowedViewsAndRouting(t *testing.T) {
	s := seededStream(t, 8, 3, 4000, 11)
	segments := []SegmentObserver{
		{Grid: []int64{5, 50}},
		{Start: 0, End: 2000, Grid: []int64{7, 70, 700}},
		{Start: 2000, End: 4000, Grid: []int64{9}},
	}
	probes := make([]*probe, len(segments))
	for i := range segments {
		probes[i] = newProbe(Needs{TripShards: true, StreamTripRuns: true})
		segments[i].Observers = []Observer{probes[i]}
	}
	ResetBuildStats()
	if err := RunWindowed(context.Background(), s, Options{Workers: 2}, segments...); err != nil {
		t.Fatal(err)
	}
	if runs := RunCount(); runs != 1 {
		t.Fatalf("RunCount = %d, want 1", runs)
	}
	wantBuilds := int64(0)
	for i, seg := range segments {
		wantBuilds += int64(len(seg.Grid))
		v := probes[i].view
		if len(v.Grid) != len(seg.Grid) {
			t.Fatalf("segment %d: view grid %v, want %v", i, v.Grid, seg.Grid)
		}
		for j := range seg.Grid {
			if v.Grid[j] != seg.Grid[j] {
				t.Fatalf("segment %d: view grid %v, want %v", i, v.Grid, seg.Grid)
			}
		}
		for pi, delta := range seg.Grid {
			if probes[i].periods[pi] == nil {
				t.Fatalf("segment %d: period %d not routed", i, pi)
			}
			if probes[i].periods[pi].delta != delta {
				t.Fatalf("segment %d period %d: delta %d, want %d", i, pi, probes[i].periods[pi].delta, delta)
			}
		}
		lo, hi := seg.Start, seg.End
		if !(seg.Start < seg.End) {
			lo, hi = 0, 4000
		}
		for _, e := range v.Events {
			if e.T < lo || e.T >= hi {
				t.Fatalf("segment %d: event at t=%d outside [%d, %d)", i, e.T, lo, hi)
			}
		}
		if v.T0 != v.Events[0].T || v.T1 != v.Events[len(v.Events)-1].T {
			t.Fatalf("segment %d: view T0/T1 %d/%d not anchored to its slice", i, v.T0, v.T1)
		}
		// Per-segment stream trips come from the segment's slice alone.
		subCSR := temporal.StreamCSR(s.SliceTime(lo, hi), false)
		wantStream := temporal.CollectTripsCSR(temporal.Config{N: s.NumNodes(), Workers: 1}, subCSR)
		if !sameTripMultiset(probes[i].stream, wantStream) {
			t.Fatalf("segment %d: stream trips not restricted to the window", i)
		}
	}
	if builds, _ := BuildStats(); builds != wantBuilds {
		t.Fatalf("built %d CSRs, want %d (each (segment, delta) exactly once)", builds, wantBuilds)
	}
}

// TestWindowedErrors covers the windowed validation paths.
func TestWindowedErrors(t *testing.T) {
	s := seededStream(t, 4, 2, 100, 12)
	if err := RunWindowed(context.Background(), s, Options{}); err == nil {
		t.Fatal("no segments should error")
	}
	err := RunWindowed(context.Background(), s, Options{}, SegmentObserver{
		Start: 5000, End: 6000, Grid: []int64{10}, Observers: []Observer{newProbe(Needs{TripShards: true})},
	})
	if err == nil || !strings.Contains(err.Error(), "no events") {
		t.Fatalf("empty window: err = %v", err)
	}
	err = RunWindowed(context.Background(), s, Options{}, SegmentObserver{Grid: []int64{10}})
	if err == nil || !strings.Contains(err.Error(), "no observers") {
		t.Fatalf("segment without observers: err = %v", err)
	}
	err = RunWindowed(context.Background(), s, Options{}, SegmentObserver{Grid: []int64{0}, Observers: []Observer{newProbe(Needs{})}})
	if err == nil {
		t.Fatal("non-positive delta should error")
	}
}
