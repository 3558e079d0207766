package repro

// Metamorphic properties of the Section 8 validation curves, checked
// through the plan like every other result.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomSymmetrisedPair builds a random stream on up to 8 nodes and its
// symmetrisation: every event (u, v, t) joined by its mirror (v, u, t).
func randomSymmetrisedPair(t *testing.T, rng *rand.Rand) (s, sym *Stream) {
	t.Helper()
	n := rng.Intn(6) + 3
	m := rng.Intn(60) + 10
	s, sym = NewStream(), NewStream()
	s.EnsureNodes(n)
	sym.EnsureNodes(n)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		ts := int64(rng.Intn(500))
		if err := s.AddID(u, v, ts); err != nil {
			t.Fatal(err)
		}
		if err := sym.AddID(u, v, ts); err != nil {
			t.Fatal(err)
		}
		if err := sym.AddID(v, u, ts); err != nil {
			t.Fatal(err)
		}
	}
	return s, sym
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
		metrics := WithMetrics(MetricTransitionLoss, MetricElongation)
		a := runPlan(t, s, metrics, WithGrid(grid...))
		b := runPlan(t, sym, metrics, WithGrid(grid...), WithDirected(true))
		if !reflect.DeepEqual(a.TransitionLoss(), b.TransitionLoss()) {
			t.Fatalf("seed=%d: transition loss diverged:\n undirected %+v\n symmetrised %+v",
				seed, a.TransitionLoss(), b.TransitionLoss())
		}
		ea, eb := a.Elongation(), b.Elongation()
		if len(ea) != len(eb) {
			t.Fatalf("seed=%d: %d elongation points vs %d", seed, len(ea), len(eb))
		}
		for i := range ea {
			pa, pb := ea[i], eb[i]
			diff := math.Abs(pa.MeanElongation - pb.MeanElongation)
			if pa.Delta != pb.Delta || pa.Trips != pb.Trips || pa.Unmatched != pb.Unmatched ||
				diff > 1e-12*math.Max(math.Abs(pa.MeanElongation), math.Abs(pb.MeanElongation)) {
				t.Fatalf("seed=%d: elongation point %d diverged:\n undirected %+v\n symmetrised %+v", seed, i, pa, pb)
			}
		}
	}
}
