package repro

// Metamorphic properties of the Section 8 validation curves, checked
// through the plan like every other result.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomStream builds a random stream on up to 8 nodes.
func randomStream(t *testing.T, rng *rand.Rand) *Stream {
	t.Helper()
	n := rng.Intn(6) + 3
	m := rng.Intn(60) + 10
	s := NewStream()
	s.EnsureNodes(n)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := s.AddID(u, v, int64(rng.Intn(500))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// rebuilt copies s event by event through add, which adds each event's
// image to the new stream.
func rebuilt(t *testing.T, s *Stream, add func(out *Stream, e Event) error) *Stream {
	t.Helper()
	out := NewStream()
	out.EnsureNodes(s.NumNodes())
	for _, e := range s.Events() {
		if err := add(out, e); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// randomSymmetrisedPair builds a random stream on up to 8 nodes and its
// symmetrisation: every event (u, v, t) joined by its mirror (v, u, t).
func randomSymmetrisedPair(t *testing.T, rng *rand.Rand) (s, sym *Stream) {
	t.Helper()
	s = randomStream(t, rng)
	sym = rebuilt(t, s, func(out *Stream, e Event) error {
		if err := out.AddID(e.U, e.V, e.T); err != nil {
			return err
		}
		return out.AddID(e.V, e.U, e.T)
	})
	return s, sym
}

// section8 computes the Section 8 curves of s over grid through the
// plan.
func section8(t *testing.T, s *Stream, grid []int64, directed bool) ([]LossPoint, []ElongationPoint) {
	t.Helper()
	rep := runPlan(t, s, WithMetrics(MetricTransitionLoss, MetricElongation),
		WithGrid(grid...), WithDirected(directed))
	return rep.TransitionLoss(), rep.Elongation()
}

// sameElongation reports whether two elongation points agree: Delta,
// Trips and Unmatched exactly, MeanElongation within relTol relative.
func sameElongation(a, b ElongationPoint, relTol float64) bool {
	if a.Delta != b.Delta || a.Trips != b.Trips || a.Unmatched != b.Unmatched {
		return false
	}
	diff := math.Abs(a.MeanElongation - b.MeanElongation)
	return diff <= relTol*math.Max(math.Abs(a.MeanElongation), math.Abs(b.MeanElongation))
}

// section8Seeds is how many random streams each Section 8 property
// checks, in both orientations.
const section8Seeds = 300

// checkSection8Property runs the Section 8 curves of a random stream
// and of its image under one transformation, for every seed and both
// orientations, and hands both pairs of curves to check.
func checkSection8Property(t *testing.T,
	image func(rng *rand.Rand, s *Stream, grid []int64) (*Stream, []int64),
	check func(la, lb []LossPoint, ea, eb []ElongationPoint) string) {
	t.Helper()
	for seed := int64(1); seed <= section8Seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomStream(t, rng)
		if s.NumEvents() == 0 {
			continue
		}
		grid := LogGrid(1, s.Duration(), 10)
		img, imgGrid := image(rng, s, grid)
		for _, directed := range []bool{false, true} {
			la, ea := section8(t, s, grid, directed)
			lb, eb := section8(t, img, imgGrid, directed)
			if len(la) != len(lb) || len(ea) != len(eb) {
				t.Fatalf("seed=%d directed=%v: curve lengths %d/%d vs %d/%d",
					seed, directed, len(la), len(ea), len(lb), len(eb))
			}
			if msg := check(la, lb, ea, eb); msg != "" {
				t.Fatalf("seed=%d directed=%v: %s", seed, directed, msg)
			}
		}
	}
}

// sameCurves demands bit-identical curves.
func sameCurves(la, lb []LossPoint, ea, eb []ElongationPoint) string {
	if !reflect.DeepEqual(la, lb) {
		return fmt.Sprintf("transition loss diverged:\n %+v\n %+v", la, lb)
	}
	if !reflect.DeepEqual(ea, eb) {
		return fmt.Sprintf("elongation diverged:\n %+v\n %+v", ea, eb)
	}
	return ""
}

// Property: the Section 8 curves are invariant under time shifts — the
// grid depends only on the duration, the window partition is anchored
// at the first event and no trip duration changes, so both curves are
// bit-identical.
func TestSection8TimeShiftInvariance(t *testing.T) {
	checkSection8Property(t, func(rng *rand.Rand, s *Stream, grid []int64) (*Stream, []int64) {
		shifted := s.Clone()
		shifted.ShiftTime(rng.Int63n(2_000_001) - 1_000_000)
		return shifted, grid
	}, sameCurves)
}

// Property: a snapshot holds one edge per linked pair however often the
// link occurs in its window, and a raw-stream layer collapses repeated
// events of one instant, so adding every event a second time changes
// no trip of either population and neither curve.
func TestSection8DuplicateEventsInvariance(t *testing.T) {
	checkSection8Property(t, func(rng *rand.Rand, s *Stream, grid []int64) (*Stream, []int64) {
		return rebuilt(t, s, func(out *Stream, e Event) error {
			if err := out.AddID(e.U, e.V, e.T); err != nil {
				return err
			}
			return out.AddID(e.U, e.V, e.T)
		}), grid
	}, sameCurves)
}

// Property: the Section 8 curves are linear in the time unit —
// multiplying every timestamp and every candidate period by k maps each
// window onto the same events and every raw trip duration onto k times
// itself, so each point keeps its loss, trip counts and mean elongation
// exactly and only Delta is multiplied by k.
func TestSection8TimeScaling(t *testing.T) {
	var k int64
	checkSection8Property(t, func(rng *rand.Rand, s *Stream, grid []int64) (*Stream, []int64) {
		k = int64(rng.Intn(9) + 2)
		scaledGrid := make([]int64, len(grid))
		for i, d := range grid {
			scaledGrid[i] = d * k
		}
		return rebuilt(t, s, func(out *Stream, e Event) error {
			return out.AddID(e.U, e.V, e.T*k)
		}), scaledGrid
	}, func(la, lb []LossPoint, ea, eb []ElongationPoint) string {
		for i := range la {
			pa, pb := la[i], lb[i]
			pa.Delta *= k
			if pa != pb {
				return fmt.Sprintf("k=%d: loss point %d = %+v after scaling, original %+v", k, i, lb[i], la[i])
			}
		}
		for i := range ea {
			pa, pb := ea[i], eb[i]
			pa.Delta *= k
			if pa != pb {
				return fmt.Sprintf("k=%d: elongation point %d = %+v after scaling, original %+v", k, i, eb[i], ea[i])
			}
		}
		return ""
	})
}

// Property: the Section 8 curves are invariant under node relabelling.
// The loss curve and every trip count are exact; the mean elongation
// agrees up to float summation order, since its sum is folded in
// destination order and relabelling permutes the destinations.
func TestSection8RelabelInvariance(t *testing.T) {
	checkSection8Property(t, func(rng *rand.Rand, s *Stream, grid []int64) (*Stream, []int64) {
		perm := rng.Perm(s.NumNodes())
		return rebuilt(t, s, func(out *Stream, e Event) error {
			return out.AddID(int32(perm[e.U]), int32(perm[e.V]), e.T)
		}), grid
	}, func(la, lb []LossPoint, ea, eb []ElongationPoint) string {
		if !reflect.DeepEqual(la, lb) {
			return fmt.Sprintf("transition loss diverged:\n %+v\n %+v", la, lb)
		}
		for i := range ea {
			if !sameElongation(ea[i], eb[i], 1e-12) {
				return fmt.Sprintf("elongation point %d diverged:\n %+v\n %+v", i, ea[i], eb[i])
			}
		}
		return ""
	})
}

// Property: the undirected Section 8 curves are the directed curves of
// the symmetrised stream. The transition-loss curve agrees exactly; the
// elongation curve agrees in its trip counts, and its mean up to the
// float summation order, which follows trip enumeration order.
func TestSection8UndirectedEqualsDirectedSymmetrised(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		s, sym := randomSymmetrisedPair(t, rand.New(rand.NewSource(seed)))
		if s.NumEvents() == 0 {
			continue
		}
		grid := LogGrid(1, s.Duration(), 10)
		la, ea := section8(t, s, grid, false)
		lb, eb := section8(t, sym, grid, true)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("seed=%d: transition loss diverged:\n undirected %+v\n symmetrised %+v", seed, la, lb)
		}
		if len(ea) != len(eb) {
			t.Fatalf("seed=%d: %d elongation points vs %d", seed, len(ea), len(eb))
		}
		for i := range ea {
			if !sameElongation(ea[i], eb[i], 1e-12) {
				t.Fatalf("seed=%d: elongation point %d diverged:\n undirected %+v\n symmetrised %+v", seed, i, ea[i], eb[i])
			}
		}
	}
}
