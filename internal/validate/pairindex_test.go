package validate

import (
	"testing"

	"repro/internal/temporal"
)

// TestMinDurationWithinEdgeCases covers the query corners: pairs with
// no trips at all, windows exactly touching a trip's endpoints, and
// instantaneous single-event trips (dep == arr, duration 0).
func TestMinDurationWithinEdgeCases(t *testing.T) {
	for _, n := range []int{6, maxFlatPairNodes + 1} { // flat mode and map mode
		trips := []temporal.Trip{
			{U: 0, V: 1, Dep: 10, Arr: 30, Hops: 2},
			{U: 0, V: 1, Dep: 40, Arr: 45, Hops: 1},
			{U: 2, V: 3, Dep: 7, Arr: 7, Hops: 1}, // single-event trip
		}
		idx := buildPairIndex(n, trips)

		// Pair with no trips: nodes exist, nothing recorded.
		if _, ok := idx.minDurationWithin(1, 0, 0, 100); ok {
			t.Fatalf("n=%d: reversed pair should have no trips", n)
		}
		if _, ok := idx.minDurationWithin(4, 5, 0, 100); ok {
			t.Fatalf("n=%d: empty pair should have no trips", n)
		}

		// Window exactly touching the endpoints contains the trip.
		if d, ok := idx.minDurationWithin(0, 1, 10, 30); !ok || d != 20 {
			t.Fatalf("n=%d: [10,30] = %d,%v want 20,true", n, d, ok)
		}
		// One unit tighter on either side excludes it (the second trip
		// [40,45] is outside both windows).
		if d, ok := idx.minDurationWithin(0, 1, 11, 39); ok {
			t.Fatalf("n=%d: [11,39] = %d,%v want miss", n, d, ok)
		}
		if d, ok := idx.minDurationWithin(0, 1, 9, 29); ok {
			t.Fatalf("n=%d: [9,29] = %d,%v want miss", n, d, ok)
		}
		// A window holding both trips picks the shorter duration.
		if d, ok := idx.minDurationWithin(0, 1, 0, 100); !ok || d != 5 {
			t.Fatalf("n=%d: [0,100] = %d,%v want 5,true", n, d, ok)
		}
		// Single-event trip: found with duration 0, including by the
		// degenerate window [7,7].
		if d, ok := idx.minDurationWithin(2, 3, 7, 7); !ok || d != 0 {
			t.Fatalf("n=%d: instantaneous trip = %d,%v want 0,true", n, d, ok)
		}
		// The elongation observers divide by the duration only after the
		// durL <= 0 guard, so a zero duration must surface as matched.
		if d, ok := idx.minDurationWithin(2, 3, 0, 100); !ok || d != 0 {
			t.Fatalf("n=%d: instantaneous trip in wide window = %d,%v want 0,true", n, d, ok)
		}
		// Out-of-range ids (flat mode bound checks).
		if _, ok := idx.minDurationWithin(int32(n), 0, 0, 100); ok {
			t.Fatalf("n=%d: out-of-range source should miss", n)
		}
		if _, ok := idx.minDurationWithin(-1, 0, 0, 100); ok {
			t.Fatalf("n=%d: negative source should miss", n)
		}
	}
}

// destRuns groups trips into the per-destination runs the engine's
// streaming pipeline would deliver: destinations increasing, and within
// a run each pair's departures strictly decreasing (sources grouped,
// matching the backward sweep's per-pair emission order).
func destRuns(n int, trips []temporal.Trip) (dests []int32, runs [][]temporal.Trip) {
	byDest := make([][]temporal.Trip, n)
	for _, tr := range trips {
		byDest[tr.V] = append(byDest[tr.V], tr)
	}
	for v := 0; v < n; v++ {
		if len(byDest[v]) == 0 {
			continue
		}
		run := byDest[v]
		// Group by source, departures descending per source — one valid
		// interleaving of the sweep's emission order.
		bySrc := make(map[int32][]temporal.Trip)
		var order []int32
		for _, tr := range run {
			if len(bySrc[tr.U]) == 0 {
				order = append(order, tr.U)
			}
			bySrc[tr.U] = append(bySrc[tr.U], tr)
		}
		out := make([]temporal.Trip, 0, len(run))
		for _, u := range order {
			g := bySrc[u]
			for i := len(g) - 1; i >= 0; i-- {
				out = append(out, g[i])
			}
		}
		dests = append(dests, int32(v))
		runs = append(runs, out)
	}
	return dests, runs
}
