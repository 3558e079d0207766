package temporal

import (
	"testing"

	"repro/internal/linkstream"
)

// arenaEvents builds a sorted, canonicalised event slice of roughly the
// requested size for arena tests.
func arenaEvents(t *testing.T, n, events int, T int64, seed int64) []linkstream.Event {
	t.Helper()
	s := randomStream(t, n, events, T, seed)
	s.Sort()
	return linkstream.Canonical(s.Events())
}

// csrEqual compares the public arrays of two CSRs.
func csrEqual(t *testing.T, got, want *CSR, label string) {
	t.Helper()
	if len(got.Keys) != len(want.Keys) || len(got.Off) != len(want.Off) || len(got.Ends) != len(want.Ends) {
		t.Fatalf("%s: shape (%d,%d,%d) vs (%d,%d,%d)", label,
			len(got.Keys), len(got.Off), len(got.Ends), len(want.Keys), len(want.Off), len(want.Ends))
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("%s: Keys[%d] = %d, want %d", label, i, got.Keys[i], want.Keys[i])
		}
	}
	for i := range want.Off {
		if got.Off[i] != want.Off[i] {
			t.Fatalf("%s: Off[%d] = %d, want %d", label, i, got.Off[i], want.Off[i])
		}
	}
	for i := range want.Ends {
		if got.Ends[i] != want.Ends[i] {
			t.Fatalf("%s: Ends[%d] = %d, want %d", label, i, got.Ends[i], want.Ends[i])
		}
	}
}

// TestBuildCSRArenaMatchesBuildCSR checks that arena-backed builds are
// bit-identical to plain builds, across repeated build/recycle cycles
// that exercise both the fresh-allocation and the reuse path.
func TestBuildCSRArenaMatchesBuildCSR(t *testing.T) {
	const n = 12
	events := arenaEvents(t, n, 400, 900, 31)
	var scratch CSRScratch
	ResetArenaStats()
	for cycle := 0; cycle < 3; cycle++ {
		for _, delta := range []int64{7, 40, 300} {
			want := BuildCSR(events, events[0].T, delta, &scratch)
			got := BuildCSRArena(events, events[0].T, delta, n, &scratch)
			if !got.ArenaBacked() {
				t.Fatalf("cycle %d delta %d: BuildCSRArena not arena-backed", cycle, delta)
			}
			csrEqual(t, got, want, "arena vs plain")
			cfg := Config{N: n, Workers: 2}
			wantTrips := CollectTripsCSR(cfg, want)
			gotTrips := CollectTripsCSR(cfg, got)
			if len(wantTrips) != len(gotTrips) {
				t.Fatalf("cycle %d delta %d: %d trips vs %d", cycle, delta, len(gotTrips), len(wantTrips))
			}
			for i := range wantTrips {
				if gotTrips[i] != wantTrips[i] {
					t.Fatalf("cycle %d delta %d: trip %d differs", cycle, delta, i)
				}
			}
			RecycleCSR(got)
		}
	}
	handed, recycled, reused := ArenaStats()
	if handed != 9 || recycled != 9 {
		t.Fatalf("handed %d recycled %d, want 9 each", handed, recycled)
	}
	// All nine builds share one (nodes, events) class; after the first
	// hands a fresh arena, every later build must reuse it.
	if reused != 8 {
		t.Fatalf("reused = %d, want 8", reused)
	}
}

// TestBuildCSRArenaEmptyEvents pins the unpooled degenerate path: an
// empty event slice gets a plain CSR, so the accounting cannot leak
// through builds that never hand an arena out.
func TestBuildCSRArenaEmptyEvents(t *testing.T) {
	ResetArenaStats()
	var scratch CSRScratch
	c := BuildCSRArena(nil, 0, 10, 5, &scratch)
	if c.ArenaBacked() || c.ArenaReused() {
		t.Fatalf("empty build is arena-backed")
	}
	RecycleCSR(c) // must be a no-op
	RecycleCSR(nil)
	if handed, recycled, _ := ArenaStats(); handed != 0 || recycled != 0 {
		t.Fatalf("empty build touched the counters: handed %d recycled %d", handed, recycled)
	}
}

// TestRecycleCSRDetachesSlices makes use-after-recycle fail fast.
func TestRecycleCSRDetachesSlices(t *testing.T) {
	events := arenaEvents(t, 8, 100, 300, 32)
	var scratch CSRScratch
	c := BuildCSRArena(events, events[0].T, 20, 8, &scratch)
	RecycleCSR(c)
	if c.Keys != nil || c.Off != nil || c.Ends != nil || c.arena != nil {
		t.Fatalf("recycled CSR still holds backing arrays: %+v", c)
	}
}

// TestArenaEvictionHugeThenTiny pins the temporal-pooling edge case the
// shelf bound exists for: one huge period followed by thousands of tiny
// ones must not pin the huge class's arena — its shelf is evicted once
// the class has been idle for arenaEvictAfter pool operations, and a
// later huge build allocates fresh.
func TestArenaEvictionHugeThenTiny(t *testing.T) {
	const n = 16
	huge := arenaEvents(t, n, 60_000, 200_000, 34)
	tiny := arenaEvents(t, n, 40, 100, 35)
	var scratch CSRScratch

	hc := BuildCSRArena(huge, huge[0].T, 1000, n, &scratch)
	hugeClass := hc.class
	RecycleCSR(hc)

	// Shelved: an immediate rebuild of the class reuses it.
	arenaMu.Lock()
	if sh := arenaShelves[hugeClass]; sh == nil || len(sh.arenas) != 1 {
		arenaMu.Unlock()
		t.Fatal("huge arena not shelved after recycle")
	}
	arenaMu.Unlock()

	// Churn the pool with tiny periods of a different class until the
	// huge shelf crosses the idle bound.
	tinyClass := arenaClassFor(n, len(tiny))
	if tinyClass == hugeClass {
		t.Fatalf("workloads collapsed into one class %+v", tinyClass)
	}
	for i := 0; i <= arenaEvictAfter; i++ {
		c := BuildCSRArena(tiny, tiny[0].T, 10, n, &scratch)
		RecycleCSR(c)
	}

	arenaMu.Lock()
	_, still := arenaShelves[hugeClass]
	arenaMu.Unlock()
	if still {
		t.Fatalf("huge class still shelved after %d pool operations of tiny churn", 2*(arenaEvictAfter+1))
	}

	ResetArenaStats()
	hc = BuildCSRArena(huge, huge[0].T, 1000, n, &scratch)
	if hc.ArenaReused() {
		t.Fatal("huge build reused an arena that should have been evicted")
	}
	RecycleCSR(hc)
	if handed, recycled, _ := ArenaStats(); handed != 1 || recycled != 1 {
		t.Fatalf("handed %d recycled %d", handed, recycled)
	}
}

// TestArenaShelfCap bounds how many idle arenas one class keeps.
func TestArenaShelfCap(t *testing.T) {
	events := arenaEvents(t, 8, 120, 300, 36)
	var scratch CSRScratch
	csrs := make([]*CSR, arenaShelfCap+3)
	for i := range csrs {
		csrs[i] = BuildCSRArena(events, events[0].T, 15, 8, &scratch)
	}
	class := csrs[0].class
	for _, c := range csrs {
		RecycleCSR(c)
	}
	arenaMu.Lock()
	defer arenaMu.Unlock()
	sh := arenaShelves[class]
	if sh == nil || len(sh.arenas) != arenaShelfCap {
		got := 0
		if sh != nil {
			got = len(sh.arenas)
		}
		t.Fatalf("shelf holds %d arenas, want cap %d", got, arenaShelfCap)
	}
}
