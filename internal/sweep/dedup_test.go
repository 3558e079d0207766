package sweep

import (
	"context"

	"reflect"
	"testing"
)

// TestWindowedDedupCoincidingJobs pins the (window, ∆) dedup: two
// segments selecting the same event window with the same grid build
// each period's CSR exactly once, and both receive bit-identical
// products.
func TestWindowedDedupCoincidingJobs(t *testing.T) {
	s := seededStream(t, 8, 3, 4000, 21)
	t0, t1, _ := s.Span()
	grid := []int64{3, 40, 700, 4000}
	a := newProbe(allNeeds())
	b := newProbe(allNeeds())
	ResetBuildStats()
	err := RunWindowed(context.Background(), s, Options{Workers: 3, MaxInFlight: 2},
		SegmentObserver{Grid: grid, Observers: []Observer{a}},                         // whole stream, zero window
		SegmentObserver{Start: t0, End: t1 + 1, Grid: grid, Observers: []Observer{b}}, // same events, explicit window
	)
	if err != nil {
		t.Fatal(err)
	}
	builds, _ := BuildStats()
	if builds != int64(len(grid)) {
		t.Fatalf("coinciding segments built %d CSRs, want %d (one per distinct (window, delta))", builds, len(grid))
	}
	if d := DedupCount(); d != int64(len(grid)) {
		t.Fatalf("DedupCount = %d, want %d", d, len(grid))
	}
	if sb := StreamBuildCount(); sb != 1 {
		t.Fatalf("StreamBuildCount = %d, want 1 (shared raw-stream enumeration)", sb)
	}
	for i := range grid {
		pa, pb := a.periods[i], b.periods[i]
		if pa == nil || pb == nil {
			t.Fatalf("period %d not routed to both segments", i)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("period %d products diverge between coinciding segments:\n%+v\n%+v", i, pa, pb)
		}
	}
	if !sameTripMultiset(a.stream, b.stream) {
		t.Fatal("coinciding segments should share the stream trip enumeration")
	}
}

// TestWindowedDedupPartialOverlap checks that only the coinciding grid
// entries are deduplicated and that results still match a plain Run per
// segment.
func TestWindowedDedupPartialOverlap(t *testing.T) {
	s := seededStream(t, 7, 2, 2000, 22)
	gridA := []int64{5, 60}
	gridB := []int64{60, 800}
	a := newProbe(allNeeds())
	b := newProbe(allNeeds())
	ResetBuildStats()
	err := RunWindowed(context.Background(), s, Options{Workers: 2},
		SegmentObserver{Grid: gridA, Observers: []Observer{a}},
		SegmentObserver{Grid: gridB, Observers: []Observer{b}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := BuildStats(); builds != 3 {
		t.Fatalf("built %d CSRs, want 3 (grids {5,60} and {60,800} share delta 60)", builds)
	}
	if d := DedupCount(); d != 1 {
		t.Fatalf("DedupCount = %d, want 1", d)
	}
	for si, got := range []*probe{a, b} {
		grid := gridA
		if si == 1 {
			grid = gridB
		}
		want := newProbe(allNeeds())
		if err := Run(context.Background(), s, grid, Options{Workers: 2}, want); err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if !reflect.DeepEqual(got.periods[i], want.periods[i]) {
				t.Fatalf("segment %d period %d diverges from its solo Run:\n%+v\n%+v",
					si, i, got.periods[i], want.periods[i])
			}
		}
	}
}

// TestWindowedNoDedupAcrossWindows checks distinct event windows never
// share a period job even with equal grids.
func TestWindowedNoDedupAcrossWindows(t *testing.T) {
	s := seededStream(t, 7, 3, 4000, 23)
	grid := []int64{7, 70}
	a := newProbe(Needs{TripShards: true, StreamTripRuns: true})
	b := newProbe(Needs{TripShards: true, StreamTripRuns: true})
	ResetBuildStats()
	err := RunWindowed(context.Background(), s, Options{Workers: 2},
		SegmentObserver{Start: 0, End: 2000, Grid: grid, Observers: []Observer{a}},
		SegmentObserver{Start: 2000, End: 4000, Grid: grid, Observers: []Observer{b}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := BuildStats(); builds != int64(2*len(grid)) {
		t.Fatalf("built %d CSRs, want %d (distinct windows must not dedup)", builds, 2*len(grid))
	}
	if d := DedupCount(); d != 0 {
		t.Fatalf("DedupCount = %d, want 0", d)
	}
	if sb := StreamBuildCount(); sb != 2 {
		t.Fatalf("StreamBuildCount = %d, want 2 (one enumeration per distinct window)", sb)
	}
}
