package temporal

import "testing"

// TestBlockedTripsMatchReference pins the blocked sweep's bit-exactness:
// CollectTripsCSR produces exactly the reference sweep's trips — same
// multiset, and destination-major order from the flat collection — on
// every workload × orientation × worker count. The workloads have 8,
// 9, 10 and 12 nodes, so full and partial destination blocks are both
// covered.
func TestBlockedTripsMatchReference(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		want := referenceTrips(Config{N: w.n, Directed: w.directed, Workers: 1}, w.layers)
		sortTrips(want)
		for _, workers := range []int{1, 3} {
			cfg := Config{N: w.n, Directed: w.directed, Workers: workers}
			got := CollectTripsCSR(cfg, c)
			for i := 1; i < len(got); i++ {
				if got[i].V < got[i-1].V {
					t.Fatalf("%s workers=%d: destination order broken at %d", w.name, workers, i)
				}
			}
			sortTrips(got)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d trips, reference has %d", w.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: trip %d = %+v, reference %+v", w.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBlockedOccupanciesMatchReference checks that the blocked
// occupancy sweep yields the reference multiset for every worker count
// (the interleaving may differ; the values may not).
func TestBlockedOccupanciesMatchReference(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		ref := referenceTrips(Config{N: w.n, Directed: w.directed, Workers: 1}, w.layers)
		want := make([]float64, 0, len(ref))
		for _, tr := range ref {
			want = append(want, tr.Occupancy())
		}
		sortFloats(want)
		for _, workers := range []int{1, 3} {
			cfg := Config{N: w.n, Directed: w.directed, Workers: workers}
			got := OccupanciesCSR(cfg, c)
			sortFloats(got)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d occupancies, reference has %d", w.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: occupancy %d = %v, reference %v", w.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDistancesBitIdenticalToReference checks the distance sink:
// identical counts and bit-identical means, because the sink folds
// per-destination partials in destination order regardless of how
// destinations interleave across workers.
func TestDistancesBitIdenticalToReference(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		for _, durPlus := range []int64{0, 1} {
			want := referenceDistances(Config{N: w.n, Directed: w.directed}, w.layers, 0, durPlus)
			cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
			got := DistancesCSR(cfg, c, 0, durPlus)
			if got.Count != want.Count {
				t.Fatalf("%s durPlus=%d: count %d, reference %d", w.name, durPlus, got.Count, want.Count)
			}
			if got.MeanTime != want.MeanTime || got.MeanHops != want.MeanHops {
				t.Fatalf("%s durPlus=%d: distances %+v, reference %+v", w.name, durPlus, got, want)
			}
		}
	}
}

// TestTripLanesHoldOwnDestination checks the blocked lane collection
// itself: lane slot LaneWidth*b+l holds exactly destination
// d = LaneWidth*b+l's run.
func TestTripLanesHoldOwnDestination(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		c := FromLayers(w.layers)
		cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
		lanes := CollectTripLanes(cfg, c)
		if len(lanes) != w.n {
			t.Fatalf("%s: %d lanes, want %d (one per destination)", w.name, len(lanes), w.n)
		}
		for d, lane := range lanes {
			for _, tr := range lane {
				if tr.V != int32(d) {
					t.Fatalf("%s: lane %d holds a trip to %d", w.name, d, tr.V)
				}
			}
		}
		if int(lanesTotal(lanes)) == 0 {
			t.Fatalf("%s: degenerate workload with no trips", w.name)
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
