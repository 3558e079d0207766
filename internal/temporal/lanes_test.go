package temporal

import "testing"

// --- Lane-width plumbing ---

func TestLaneWidthResolution(t *testing.T) {
	if w := DefaultLaneWidth(); w != 4 && w != 8 {
		t.Fatalf("DefaultLaneWidth() = %d, want 4 or 8", w)
	}
	for _, w := range []int{0, 4, 8} {
		if !ValidLaneWidth(w) {
			t.Fatalf("ValidLaneWidth(%d) = false", w)
		}
	}
	for _, w := range []int{-1, 1, 2, 3, 5, 6, 7, 16} {
		if ValidLaneWidth(w) {
			t.Fatalf("ValidLaneWidth(%d) = true", w)
		}
	}
	if ResolveLaneWidth(0) != DefaultLaneWidth() {
		t.Fatalf("ResolveLaneWidth(0) = %d, want default %d", ResolveLaneWidth(0), DefaultLaneWidth())
	}
	for _, w := range []int{4, 8} {
		if ResolveLaneWidth(w) != w {
			t.Fatalf("ResolveLaneWidth(%d) = %d", w, ResolveLaneWidth(w))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResolveLaneWidth(3) did not panic")
		}
	}()
	ResolveLaneWidth(3)
}

// TestLaneWidthEquivalenceTrips pins the tentpole bit-exactness
// guarantee: the 4- and 8-lane kernels produce exactly the reference
// sweep's trips — same multiset, and destination-major order from the
// flat collection — on every workload × orientation × worker count.
func TestLaneWidthEquivalenceTrips(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		want := referenceTrips(Config{N: w.n, Directed: w.directed, Workers: 1}, w.layers)
		sortTrips(want)
		for _, width := range []int{4, 8} {
			for _, workers := range []int{1, 3} {
				cfg := Config{N: w.n, Directed: w.directed, Workers: workers, LaneWidth: width}
				got := CollectTripsCSR(cfg, c)
				// The flat collection is destination-major for every width.
				for i := 1; i < len(got); i++ {
					if got[i].V < got[i-1].V {
						t.Fatalf("%s width=%d workers=%d: destination order broken at %d", w.name, width, workers, i)
					}
				}
				sortTrips(got)
				if len(got) != len(want) {
					t.Fatalf("%s width=%d workers=%d: %d trips, reference has %d", w.name, width, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s width=%d workers=%d: trip %d = %+v, reference %+v", w.name, width, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLaneWidthEquivalenceOccupancies checks that the occupancy
// multiset is width-invariant (the interleaving may differ; the values
// may not).
func TestLaneWidthEquivalenceOccupancies(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		ref := referenceTrips(Config{N: w.n, Directed: w.directed, Workers: 1}, w.layers)
		want := make([]float64, 0, len(ref))
		for _, tr := range ref {
			want = append(want, tr.Occupancy())
		}
		sortFloats(want)
		for _, width := range []int{4, 8} {
			cfg := Config{N: w.n, Directed: w.directed, Workers: 2, LaneWidth: width}
			got := OccupanciesCSR(cfg, c)
			sortFloats(got)
			if len(got) != len(want) {
				t.Fatalf("%s width=%d: %d occupancies, reference has %d", w.name, width, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s width=%d: occupancy %d = %v, reference %v", w.name, width, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneWidthEquivalenceDistances checks the distance sink across
// widths: identical counts and bit-identical means, because the sink
// folds per-destination partials in destination order regardless of
// lane interleaving.
func TestLaneWidthEquivalenceDistances(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		for _, durPlus := range []int64{0, 1} {
			want := referenceDistances(Config{N: w.n, Directed: w.directed}, w.layers, 0, durPlus)
			for _, width := range []int{4, 8} {
				cfg := Config{N: w.n, Directed: w.directed, Workers: 2, LaneWidth: width}
				got := DistancesCSR(cfg, c, 0, durPlus)
				if got.Count != want.Count {
					t.Fatalf("%s width=%d durPlus=%d: count %d, reference %d", w.name, width, durPlus, got.Count, want.Count)
				}
				if got.MeanTime != want.MeanTime || got.MeanHops != want.MeanHops {
					t.Fatalf("%s width=%d durPlus=%d: distances %+v, reference %+v", w.name, width, durPlus, got, want)
				}
			}
		}
	}
}

// TestLaneWidthEquivalenceLanes checks the blocked lane collection
// itself: lane slot width*b+l holds exactly destination d = width*b+l's
// run, for both widths.
func TestLaneWidthEquivalenceLanes(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		for _, width := range []int{4, 8} {
			cfg := Config{N: w.n, Directed: w.directed, Workers: 2, LaneWidth: width}
			lanes := CollectTripLanes(cfg, c)
			if len(lanes) != w.n {
				t.Fatalf("%s width=%d: %d lanes, want %d (one per destination)", w.name, width, len(lanes), w.n)
			}
			for d, lane := range lanes {
				for _, tr := range lane {
					if tr.V != int32(d) {
						t.Fatalf("%s width=%d: lane %d holds a trip to %d", w.name, width, d, tr.V)
					}
				}
			}
			if int(lanesTotal(lanes)) == 0 {
				t.Fatalf("%s: degenerate workload with no trips", w.name)
			}
		}
	}
}

func lanesTotal(lanes [][]Trip) int64 {
	var n int64
	for _, l := range lanes {
		n += int64(len(l))
	}
	return n
}

// TestWorkerWidth pins the worker-facing width surface.
func TestWorkerWidth(t *testing.T) {
	for _, width := range []int{4, 8} {
		wk := NewWorkerWidth(10, width)
		if wk.Width() != width {
			t.Fatalf("NewWorkerWidth(10, %d).Width() = %d", width, wk.Width())
		}
		wk.Release()
	}
	wk := NewWorker(10)
	if wk.Width() != DefaultLaneWidth() {
		t.Fatalf("NewWorker width = %d, want default %d", wk.Width(), DefaultLaneWidth())
	}
	wk.Release()
}
