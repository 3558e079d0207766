package sweep

// Worker-count and arena-pool suite for the engine layer: every worker
// count drives the same observer results bit for bit, and every arena
// the engine is handed goes back to the pool — on success, failure and
// randomized mid-run cancellation alike.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/temporal"
)

// assertArenaBalance asserts the package-level arena accounting since
// the last ResetArenaStats: handed and recycled must match, or the
// engine leaked its largest buffers.
func assertArenaBalance(t *testing.T, stage string) {
	t.Helper()
	handed, recycled, _ := temporal.ArenaStats()
	if handed != recycled {
		t.Fatalf("%s: %d arenas handed out but %d recycled — pool leak", stage, handed, recycled)
	}
}

// TestRunWorkerCountEquivalence pins the engine-level bit-exactness
// across worker counts: identical per-period occupancy fingerprints
// and identical destination-major trip streams for 1 and 4 workers.
func TestRunWorkerCountEquivalence(t *testing.T) {
	s := seededStream(t, 13, 3, 4_000, 61)
	grid := []int64{3, 30, 300, 3000}

	type fingerprint struct {
		sums   []float64
		counts []int
		trips  []temporal.Trip
	}
	collect := func(workers int) fingerprint {
		t.Helper()
		occ := &cancellingObserver{cancelAt: math.MaxInt64}
		rec := &runRecorder{}
		err := Run(context.Background(), s, grid,
			Options{Workers: workers, MaxInFlight: 2}, occ, rec)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint{sums: occ.sums, counts: occ.counts, trips: append([]temporal.Trip(nil), rec.flat...)}
	}

	ref := collect(1)
	for _, workers := range []int{1, 4} {
		got := collect(workers)
		for i := range ref.sums {
			if got.sums[i] != ref.sums[i] || got.counts[i] != ref.counts[i] {
				t.Fatalf("workers=%d: period %d fingerprint %v/%d, want %v/%d",
					workers, i, got.sums[i], got.counts[i], ref.sums[i], ref.counts[i])
			}
		}
		if len(got.trips) != len(ref.trips) {
			t.Fatalf("workers=%d: %d stream trips, want %d", workers, len(got.trips), len(ref.trips))
		}
		for i := range ref.trips {
			if got.trips[i] != ref.trips[i] {
				t.Fatalf("workers=%d: stream trip %d = %+v, want %+v (destination-major order is worker-invariant)",
					workers, i, got.trips[i], ref.trips[i])
			}
		}
	}
}

// TestArenaBalanceAfterRun checks the per-run arena counters of a
// completed run: every period build is arena-backed, hands and
// recycles balance, and repeat runs reuse shelved arenas.
func TestArenaBalanceAfterRun(t *testing.T) {
	s := seededStream(t, 10, 3, 3_000, 63)
	grid := []int64{5, 50, 500}
	temporal.ResetArenaStats()
	var last RunStats
	for iter := 0; iter < 3; iter++ {
		var stats RunStats
		err := Run(context.Background(), s, grid, Options{Workers: 2, MaxInFlight: 2, Stats: &stats},
			newProbe(Needs{Occupancies: true, TripShards: true}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.ArenaHanded == 0 {
			t.Fatal("run handed no arenas — period builds are not arena-backed")
		}
		if stats.ArenaHanded != stats.ArenaRecycled {
			t.Fatalf("iter %d: run handed %d arenas, recycled %d", iter, stats.ArenaHanded, stats.ArenaRecycled)
		}
		last = stats
	}
	// By the third identical run every class has shelved arenas from the
	// previous one: every hand must be a reuse.
	if last.ArenaReused != last.ArenaHanded {
		t.Fatalf("steady-state run reused %d of %d arenas", last.ArenaReused, last.ArenaHanded)
	}
	assertArenaBalance(t, "completed runs")
}

// TestArenaBalanceAfterCancel is the arena analogue of the mid-sweep
// cancellation lane check: randomized cancellation points across worker
// and in-flight mixes must never strand an arena.
func TestArenaBalanceAfterCancel(t *testing.T) {
	s := seededStream(t, 14, 4, 4_000, 64)
	grid := []int64{1, 3, 9, 27, 81, 243, 729, 2187}
	rng := rand.New(rand.NewSource(65))
	temporal.ResetArenaStats()
	for iter := 0; iter < 12; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancellingObserver{cancelAt: int64(1 + rng.Intn(len(grid))), cancel: cancel}
		var stats RunStats
		err := Run(ctx, s, grid,
			Options{Workers: 1 + rng.Intn(4), MaxInFlight: 1 + rng.Intn(3), Stats: &stats}, obs)
		if err != nil && err != context.Canceled {
			t.Fatalf("iter %d: err = %v", iter, err)
		}
		if stats.ArenaHanded != stats.ArenaRecycled {
			t.Fatalf("iter %d: cancelled run handed %d arenas, recycled %d", iter, stats.ArenaHanded, stats.ArenaRecycled)
		}
		cancel()
	}
	assertArenaBalance(t, "randomized cancel")
}

// TestArenaBalanceAfterObserverError covers the failure teardown path.
func TestArenaBalanceAfterObserverError(t *testing.T) {
	s := seededStream(t, 12, 3, 3_000, 66)
	grid := []int64{1, 7, 49, 343}
	temporal.ResetArenaStats()
	for iter := 0; iter < 4; iter++ {
		var stats RunStats
		obs := &failingObserver{probe: *newProbe(allNeeds()), failAt: iter}
		err := Run(context.Background(), s, grid, Options{Workers: 3, MaxInFlight: 2, Stats: &stats}, obs)
		if err == nil {
			t.Fatal("expected observer error")
		}
		if stats.ArenaHanded != stats.ArenaRecycled {
			t.Fatalf("iter %d: failed run handed %d arenas, recycled %d", iter, stats.ArenaHanded, stats.ArenaRecycled)
		}
	}
	assertArenaBalance(t, "observer error")
}
