package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/linkstream"
)

// randomSmallStream builds a random stream on up to 8 nodes.
func randomSmallStream(rng *rand.Rand) *linkstream.Stream {
	n := rng.Intn(6) + 3
	m := rng.Intn(60) + 10
	s := linkstream.New()
	s.EnsureNodes(n)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := s.AddID(u, v, int64(rng.Intn(500))); err != nil {
			panic(err)
		}
	}
	return s
}

// Property: the occupancy method is invariant under time shifts —
// shifting every timestamp by a constant changes neither the grid
// (built from duration and resolution, both shift-invariant) nor any
// occupancy distribution, hence neither gamma.
func TestQuickTimeShiftInvariance(t *testing.T) {
	f := func(seed int64, shiftRaw int32) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		shifted := s.Clone()
		shifted.ShiftTime(int64(shiftRaw))
		grid := LogGrid(1, s.Duration(), 10)
		opt := Options{Workers: 1}
		a, err := Sweep(context.Background(), s, grid, opt)
		if err != nil {
			return false
		}
		b, err := Sweep(context.Background(), shifted, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the occupancy method is invariant under node relabelling —
// permuting node identities permutes trips but leaves the occupancy
// distribution, and therefore every score, unchanged.
func TestQuickRelabelInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		n := s.NumNodes()
		perm := rng.Perm(n)
		relabeled := linkstream.New()
		relabeled.EnsureNodes(n)
		for _, e := range s.Events() {
			if err := relabeled.AddID(int32(perm[e.U]), int32(perm[e.V]), e.T); err != nil {
				return false
			}
		}
		grid := LogGrid(1, s.Duration(), 8)
		opt := Options{Workers: 1}
		a, err := Sweep(context.Background(), s, grid, opt)
		if err != nil {
			return false
		}
		b, err := Sweep(context.Background(), relabeled, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: reversing edge orientation leaves the undirected analysis
// unchanged. (No such symmetry holds for the directed analysis: time
// still flows forward, so reversing edges without reversing time
// changes reachability.)
func TestQuickReversalInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			return true
		}
		reversed := linkstream.New()
		reversed.EnsureNodes(s.NumNodes())
		for _, e := range s.Events() {
			if err := reversed.AddID(e.V, e.U, e.T); err != nil {
				return false
			}
		}
		grid := LogGrid(1, s.Duration(), 8)
		opt := Options{Workers: 1}
		a, err := Sweep(context.Background(), s, grid, opt)
		if err != nil {
			return false
		}
		b, err := Sweep(context.Background(), reversed, grid, opt)
		if err != nil {
			return false
		}
		for i := range a {
			if a[i].Trips != b[i].Trips || a[i].Scores[0] != b[i].Scores[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// rebuild copies s event by event through f, which adds each event's
// image to the new stream.
func rebuild(s *linkstream.Stream, f func(out *linkstream.Stream, e linkstream.Event) error) (*linkstream.Stream, error) {
	out := linkstream.New()
	out.EnsureNodes(s.NumNodes())
	for _, e := range s.Events() {
		if err := f(out, e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Property: the saturation scale is linear in the time unit —
// multiplying every timestamp and every candidate period by k maps
// each aggregation window onto the same events, so every point keeps
// its trip count and scores and γ is multiplied by k.
func TestTimeScalingScalesGamma(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			continue
		}
		k := int64(rng.Intn(9) + 2)
		scaled, err := rebuild(s, func(out *linkstream.Stream, e linkstream.Event) error {
			return out.AddID(e.U, e.V, e.T*k)
		})
		if err != nil {
			t.Fatal(err)
		}
		grid := LogGrid(1, s.Duration(), 10)
		scaledGrid := make([]int64, len(grid))
		for i, d := range grid {
			scaledGrid[i] = d * k
		}
		for _, directed := range []bool{false, true} {
			a, err := SaturationScale(context.Background(), s, Options{Directed: directed, Workers: 1, Grid: grid})
			if err != nil {
				t.Fatal(err)
			}
			b, err := SaturationScale(context.Background(), scaled, Options{Directed: directed, Workers: 1, Grid: scaledGrid})
			if err != nil {
				t.Fatal(err)
			}
			if b.Gamma != k*a.Gamma {
				t.Fatalf("seed=%d k=%d directed=%v: γ=%d after scaling, want %d", seed, k, directed, b.Gamma, k*a.Gamma)
			}
			if len(a.Points) != len(b.Points) {
				t.Fatalf("seed=%d k=%d directed=%v: %d points vs %d", seed, k, directed, len(b.Points), len(a.Points))
			}
			for i := range a.Points {
				pa, pb := a.Points[i], b.Points[i]
				if pb.Delta != k*pa.Delta || pb.Trips != pa.Trips || !reflect.DeepEqual(pb.Scores, pa.Scores) {
					t.Fatalf("seed=%d k=%d directed=%v: point %d = %+v after scaling, original %+v", seed, k, directed, i, pb, pa)
				}
			}
		}
	}
}

// Property: a snapshot holds one edge per linked pair however often
// the link occurs in its window, so adding every event a second time
// changes no snapshot, no minimal trip and no part of the Result.
func TestDuplicateEventsInvariance(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			continue
		}
		doubled, err := rebuild(s, func(out *linkstream.Stream, e linkstream.Event) error {
			if err := out.AddID(e.U, e.V, e.T); err != nil {
				return err
			}
			return out.AddID(e.U, e.V, e.T)
		})
		if err != nil {
			t.Fatal(err)
		}
		grid := LogGrid(1, s.Duration(), 10)
		for _, directed := range []bool{false, true} {
			opt := Options{Directed: directed, Workers: 1, Grid: grid, Refine: 3}
			a, err := SaturationScale(context.Background(), s, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := SaturationScale(context.Background(), doubled, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed=%d directed=%v: duplicated events changed the result:\n got %+v\nwant %+v", seed, directed, b, a)
			}
		}
	}
}

// Property: an undirected analysis is the directed analysis of the
// symmetrised stream — every event (u, v, t) joined by its mirror
// (v, u, t) — because an undirected snapshot edge is usable both ways.
// The whole Result agrees, refinement included.
func TestUndirectedEqualsDirectedSymmetrised(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSmallStream(rng)
		if s.NumEvents() == 0 {
			continue
		}
		sym, err := rebuild(s, func(out *linkstream.Stream, e linkstream.Event) error {
			if err := out.AddID(e.U, e.V, e.T); err != nil {
				return err
			}
			return out.AddID(e.V, e.U, e.T)
		})
		if err != nil {
			t.Fatal(err)
		}
		grid := LogGrid(1, s.Duration(), 10)
		a, err := SaturationScale(context.Background(), s, Options{Workers: 1, Grid: grid, Refine: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SaturationScale(context.Background(), sym, Options{Directed: true, Workers: 1, Grid: grid, Refine: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed=%d: directed run on the symmetrised stream diverged:\n got %+v\nwant %+v", seed, b, a)
		}
	}
}
