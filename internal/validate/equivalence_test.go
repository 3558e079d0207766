package validate

import (
	"context"

	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
)

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

// TestTransitionLossMatchesReference asserts the engine-backed curve
// reproduces the seed implementation exactly on seeded workloads,
// directed and undirected.
func TestTransitionLossMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 2500, seed)
			grid := []int64{1, 17, 150, 2500}
			want, err := TransitionLossCurveReference(s, grid, Options{Directed: directed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := TransitionLossCurve(context.Background(), s, grid, Options{Directed: directed, Workers: 3, MaxInFlight: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d points, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("directed=%v seed=%d point %d: %+v != %+v", directed, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestElongationMatchesReference asserts the engine-backed curve
// reproduces the seed implementation exactly. The reference runs with
// Workers = 1, which fixes its trip enumeration to destination-major
// order — the order the engine guarantees for any worker count — and
// both implementations fold the elongation sum as per-destination
// subtotals in destination order, so the floating-point results must be
// bit-identical for every worker count and in-flight bound.
func TestElongationMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 7, 2, 2500, seed)
			grid := []int64{1, 17, 150, 800, 2500}
			want, err := ElongationCurveReference(s, grid, Options{Directed: directed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, inFlight := range []int{1, 2, 0} {
					got, err := ElongationCurve(context.Background(), s, grid, Options{Directed: directed, Workers: workers, MaxInFlight: inFlight})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("got %d points, want %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d point %d: %+v != %+v",
								directed, seed, workers, inFlight, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamingObserversMatchEagerObservers runs the streaming
// observers (pair-span arena off trip runs, sharded period
// scans) and the retained eager reference observers in the same fused
// engine pass, across seeds × orientations × workers × in-flight
// bounds, and requires bit-identical curves — the tentpole guarantee
// that streaming the trip pipeline never changes a result.
func TestStreamingObserversMatchEagerObservers(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := mixedStream(t, 8, 2, 3000, seed)
			grid := []int64{1, 12, 90, 700, 3000}
			for _, workers := range []int{1, 3} {
				for _, inFlight := range []int{1, 2, 0} {
					loss := NewTransitionLossObserver()
					lossRef := NewTransitionLossObserverReference()
					elong := NewElongationObserver()
					elongRef := NewElongationObserverReference()
					err := sweep.Run(context.Background(), s, grid,
						sweep.Options{Directed: directed, Workers: workers, MaxInFlight: inFlight},
						loss, lossRef, elong, elongRef)
					if err != nil {
						t.Fatal(err)
					}
					for i := range grid {
						if loss.Points()[i] != lossRef.Points()[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d loss point %d: streaming %+v != eager %+v",
								directed, seed, workers, inFlight, i, loss.Points()[i], lossRef.Points()[i])
						}
						if elong.Points()[i] != elongRef.Points()[i] {
							t.Fatalf("directed=%v seed=%d workers=%d inflight=%d elongation point %d: streaming %+v != eager %+v",
								directed, seed, workers, inFlight, i, elong.Points()[i], elongRef.Points()[i])
						}
					}
				}
			}
		}
	}
}
