package validate

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/temporal"
)

// randomTrips builds a random trip population over n node ids (capped
// at 16 sources/destinations so pairs stay dense while the id space —
// and the arena's destOff table — can be large).
func randomTrips(n int, seed int64) []temporal.Trip {
	rng := rand.New(rand.NewSource(seed))
	small := n
	if small > 16 {
		small = 16
	}
	var trips []temporal.Trip
	for u := 0; u < small; u++ {
		for v := 0; v < small; v++ {
			if u == v || rng.Intn(3) == 0 {
				continue
			}
			k := 1 + rng.Intn(4)
			dep := int64(1000)
			for i := 0; i < k; i++ {
				dep -= int64(1 + rng.Intn(50))
				trips = append(trips, temporal.Trip{
					U: int32(u), V: int32(v),
					Dep: dep, Arr: dep + int64(rng.Intn(20)),
					Hops: int32(1 + rng.Intn(3)),
				})
			}
		}
	}
	return trips
}

// buildArena encodes trips into a span arena through the engine's
// per-destination run order.
func buildArena(t *testing.T, n int, trips []temporal.Trip, spillCap int64) *spanArena {
	t.Helper()
	a := newSpanArena(n, spillCap)
	dests, runs := destRuns(n, trips)
	for i := range dests {
		if err := a.addRun(dests[i], runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	a.finish()
	return a
}

// regionSpans returns source u's spans in the region decoded into ds;
// nil if u has none.
func regionSpans(ds *destSpans, u int32) []tripSpan {
	if sl := ds.slot(u); sl != nil {
		return ds.spans[sl.lo:sl.hi]
	}
	return nil
}

// TestSpanArenaMatchesPairIndex decodes every destination region of the
// delta-encoded arena and requires exactly the integer spans the eager
// flat/map pair index holds — for small and large node counts, with
// the spill shelf off and forced on after every run (cap 1 byte). One
// destSpans scratch serves every arena, as the observer's pool does,
// while n grows past maxFlatPairNodes and shrinks back, so slot-table
// entries left by a larger arena must read as absent. The probed
// sources include ids absent from the region, negative ids and ids at
// or past n.
func TestSpanArenaMatchesPairIndex(t *testing.T) {
	ds := &destSpans{}
	for _, n := range []int{1, 5, 12, maxFlatPairNodes + 1, 12, 5, 1} {
		// Every id of a small arena; for a large one the random trips'
		// ids (all < 16) and the ids around n.
		var probe []int32
		for u := -2; u < n+2; u++ {
			if u < 20 || u >= n-1 {
				probe = append(probe, int32(u))
			}
		}
		for _, spillCap := range []int64{0, 1, 512} {
			trips := randomTrips(n, int64(n))
			want := buildPairIndex(n, trips)
			a := buildArena(t, n, trips, spillCap)
			if spillCap == 1 && len(trips) > 0 && a.spilled == 0 {
				t.Fatalf("n=%d: cap 1 never spilled", n)
			}

			for v := 0; v < n; v++ {
				if err := a.decodeDest(int32(v), ds); err != nil {
					t.Fatalf("n=%d cap=%d dest %d: %v", n, spillCap, v, err)
				}
				found := 0
				for _, u := range probe {
					ws, gs := want.pair(u, int32(v)), regionSpans(ds, u)
					found += len(gs)
					if len(ws) == 0 && len(gs) == 0 {
						continue
					}
					if !reflect.DeepEqual(ws, gs) {
						t.Fatalf("n=%d cap=%d pair (%d,%d): arena %v != index %v", n, spillCap, u, v, gs, ws)
					}
				}
				if found != len(ds.spans) {
					t.Fatalf("n=%d cap=%d dest %d: probed sources hold %d of the region's %d spans", n, spillCap, v, found, len(ds.spans))
				}

				// The window query agrees with the flat index on random
				// windows, so each source's search cursor moves both ways
				// between its queries.
				rng := rand.New(rand.NewSource(int64(v)))
				for q := 0; q < 60; q++ {
					u := probe[rng.Intn(len(probe))]
					lo := int64(rng.Intn(1200) - 100)
					hi := lo + int64(rng.Intn(300))
					gd, gok := ds.minDurationWithin(u, lo, hi)
					wd, wok := want.minDurationWithin(u, int32(v), lo, hi)
					if gok != wok || (gok && gd != wd) {
						t.Fatalf("n=%d pair (%d,%d) window [%d,%d]: arena %d,%v != index %d,%v",
							n, u, v, lo, hi, gd, gok, wd, wok)
					}
				}
			}
			a.release()
		}
	}
}

// TestDestSpansEpochWrap drives the scratch's decode epoch through its
// wrap-around: slot entries stamped long before must still read as
// absent once the epoch restarts, and the regions decoded across the
// wrap must answer exactly as the pair index does.
func TestDestSpansEpochWrap(t *testing.T) {
	const n = 6
	trips := []temporal.Trip{
		{U: 0, V: 1, Dep: 10, Arr: 30, Hops: 2},
		{U: 2, V: 1, Dep: 5, Arr: 9, Hops: 1},
		{U: 3, V: 4, Dep: 7, Arr: 12, Hops: 1},
	}
	want := buildPairIndex(n, trips)
	a := buildArena(t, n, trips, 0)
	ds := &destSpans{}
	check := func(v int32) {
		t.Helper()
		if err := a.decodeDest(v, ds); err != nil {
			t.Fatal(err)
		}
		for u := int32(-1); u <= n; u++ {
			ws, gs := want.pair(u, v), regionSpans(ds, u)
			if len(ws) != 0 || len(gs) != 0 {
				if !reflect.DeepEqual(ws, gs) {
					t.Fatalf("epoch %d pair (%d,%d): arena %v != index %v", ds.epoch, u, v, gs, ws)
				}
			}
		}
	}
	check(1) // stamps sources 0 and 2 with epoch 1
	ds.epoch = math.MaxUint32 - 1
	for i := 0; i < 3; i++ {
		check(4) // the second decode wraps the epoch
	}
	if ds.epoch != 2 {
		t.Fatalf("epoch after the wrap = %d, want 2", ds.epoch)
	}
	check(1)
}

// TestSpanArenaSpilledReadAfterRelease pins the failure mode: decoding
// a spilled destination after the shelf closed reports the shelf, not
// garbage.
func TestSpanArenaSpilledReadAfterRelease(t *testing.T) {
	trips := randomTrips(8, 3)
	a := buildArena(t, 8, trips, 1)
	a.release()
	ds := &destSpans{}
	err := a.decodeDest(trips[0].V, ds)
	if err == nil {
		t.Fatal("decoding a spilled region after release must fail")
	}
}

// TestDecodeDestRejectsCorruptSource pins that a region whose source
// deltas leave [0, n) — as a damaged spill shelf could hold — decodes
// to an error instead of indexing outside the slot table.
func TestDecodeDestRejectsCorruptSource(t *testing.T) {
	for _, region := range [][]byte{
		{0, 1, 0, 2},       // delta 0: source -1
		{3, 1, 0, 2},       // delta 3: source 2 of n = 2
		{1, 1, 0, 2, 2, 1}, // second source 0 + 2 = 2
	} {
		a := newSpanArena(2, 0)
		a.buf = region // destination 0's region: destOff[0] stays 0
		a.nextDest = 1
		a.finish()
		if err := a.decodeDest(0, &destSpans{}); err == nil {
			t.Fatalf("region %v: decode succeeded, want a corrupt-source error", region)
		}
	}
}

// TestElongationSpillForcedBitExact is the acceptance gate for the
// spill shelf: an elongation run whose arena is forced to spill after
// every encoded run (SpillBytes 1) produces the identical curve — every
// float bit — as the all-in-RAM observer and the eager reference, and
// really did spill.
func TestElongationSpillForcedBitExact(t *testing.T) {
	for _, directed := range []bool{false, true} {
		s := mixedStream(t, 8, 2, 3000, 4)
		grid := []int64{1, 12, 90, 700, 3000}

		want, err := ElongationCurveReference(s, grid, Options{Directed: directed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		inRAM, err := ElongationCurve(context.Background(), s, grid,
			Options{Directed: directed, Workers: 3, MaxInFlight: 2})
		if err != nil {
			t.Fatal(err)
		}

		spilling := NewElongationObserver()
		spilling.SpillBytes = 1
		if err := sweep.Run(context.Background(), s, grid,
			sweep.Options{Directed: directed, Workers: 3, MaxInFlight: 2}, spilling); err != nil {
			t.Fatal(err)
		}
		if spilling.arena.spilled == 0 {
			t.Fatal("SpillBytes=1 run never touched the spill shelf")
		}

		for i := range grid {
			if spilling.Points()[i] != want[i] {
				t.Fatalf("directed=%v point %d: spilled %+v != reference %+v", directed, i, spilling.Points()[i], want[i])
			}
			if inRAM[i] != want[i] {
				t.Fatalf("directed=%v point %d: resident %+v != reference %+v", directed, i, inRAM[i], want[i])
			}
		}
	}
}
