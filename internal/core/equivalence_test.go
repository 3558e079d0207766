package core

import (
	"context"

	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/linkstream"
)

// mixedStream builds a seeded workload with random orientation so
// directed analyses exercise both edge directions.
func mixedStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for k := 0; k < perPair; k++ {
				a, b := int32(u), int32(v)
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				if err := s.AddID(a, b, rng.Int63n(T)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// TestSweepMatchesReference asserts the engine-backed Sweep reproduces
// the seed per-∆ implementation exactly — same trip counts, bit-equal
// scores for all five selectors — on seeded workloads, directed and
// undirected, across worker counts and in-flight bounds. The reference
// scores Trip.Occupancy() of every minimal trip, so this compares the
// engine's occupancy arithmetic with Definition 7, not with itself.
func TestSweepMatchesReference(t *testing.T) {
	grids := [][]int64{
		{1, 9, 77, 500, 3000},
		{2, 30, 444, 3000},
		{1, 3000},
	}
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 3000, seed)
			grid := grids[seed-1]
			opt := Options{Directed: directed, Selectors: dist.AllSelectors()}
			want, err := SweepReference(s, grid, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, inFlight := range []int{1, 2, 0} {
					opt := opt
					opt.Workers = workers
					opt.MaxInFlight = inFlight
					got, err := Sweep(context.Background(), s, grid, opt)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("got %d points, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i].Delta != want[i].Delta || got[i].Trips != want[i].Trips {
							t.Fatalf("directed=%v seed=%d w=%d f=%d point %d: %+v != %+v",
								directed, seed, workers, inFlight, i, got[i], want[i])
						}
						for si := range want[i].Scores {
							if got[i].Scores[si] != want[i].Scores[si] {
								t.Fatalf("directed=%v seed=%d w=%d f=%d point %d selector %d: %v != %v",
									directed, seed, workers, inFlight, i, si, got[i].Scores[si], want[i].Scores[si])
							}
						}
					}
				}
			}
		}
	}
}
