package core

import (
	"context"

	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/linkstream"
)

// uniformStream builds a small time-uniform network: every pair of n
// nodes gets N events at uniformly random timestamps in [0, T).
func uniformStream(t testing.TB, n, perPair int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for k := 0; k < perPair; k++ {
				if err := s.AddID(int32(u), int32(v), rng.Int63n(T)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(1, 1000, 10)
	if g[0] != 1 || g[len(g)-1] != 1000 {
		t.Fatalf("grid endpoints = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not strictly increasing: %v", g)
		}
	}
	if got := LogGrid(5, 5, 10); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate grid = %v", got)
	}
	if got := LogGrid(0, 10, 3); got[0] != 1 {
		t.Fatalf("lo < 1 should clamp to 1: %v", got)
	}
	if got := LogGrid(10, 3, 4); got[len(got)-1] != 10 {
		t.Fatalf("hi < lo should clamp: %v", got)
	}
}

func TestLinearGrid(t *testing.T) {
	g := LinearGrid(0, 100, 11)
	if len(g) != 11 || g[0] != 0 || g[10] != 100 || g[5] != 50 {
		t.Fatalf("linear grid = %v", g)
	}
	if got := LinearGrid(7, 7, 5); len(got) != 1 || got[0] != 7 {
		t.Fatalf("degenerate linear grid = %v", got)
	}
}

func TestOccupancySampleLimits(t *testing.T) {
	s := uniformStream(t, 6, 3, 1000, 1)
	// ∆ = T: single window, all occupancies exactly 1.
	full, err := OccupancySample(s, 10_000, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range full.Values() {
		if v != 1 {
			t.Fatalf("occupancy %v != 1 at full aggregation", v)
		}
	}
	// ∆ = resolution: occupancies concentrate near 0 (long waits).
	fine, err := OccupancySample(s, 1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Mean() >= full.Mean() {
		t.Fatalf("fine mean %v should be below full mean %v", fine.Mean(), full.Mean())
	}
}

// TestOccupancyChainScoresExactlyOne checks Definition 7's arithmetic
// on a chain 0-1-...-59 whose link (i, i+1) is at time 10·i: at ∆ = 10
// each link gets its own window, so every minimal trip crosses one link
// per window and its hops equal its duration. hops/duration must be
// exactly 1 for every trip (49/49 included), in both orientations.
func TestOccupancyChainScoresExactlyOne(t *testing.T) {
	const n = 60
	s := linkstream.New()
	s.EnsureNodes(n)
	for i := 0; i+1 < n; i++ {
		if err := s.AddID(int32(i), int32(i+1), int64(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		directed bool
		trips    int
	}{
		{directed: false, trips: 1829},
		{directed: true, trips: 1770},
	} {
		sample, err := OccupancySample(s, 10, Options{Directed: tc.directed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sample.N() != tc.trips {
			t.Fatalf("directed=%v: %d trips, want %d", tc.directed, sample.N(), tc.trips)
		}
		if got := sample.Values(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("directed=%v: occupancy values %v, want [1]", tc.directed, got)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	empty := linkstream.New()
	if _, err := Sweep(context.Background(), empty, []int64{1}, Options{}); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("empty stream sweep err = %v", err)
	}
	s := uniformStream(t, 4, 2, 100, 2)
	if _, err := Sweep(context.Background(), s, nil, Options{}); err == nil {
		t.Fatal("empty grid should error")
	}
	if _, err := OccupancySample(empty, 5, Options{}); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("empty stream sample err = %v", err)
	}
}

func TestSaturationScaleUnimodalCurve(t *testing.T) {
	s := uniformStream(t, 8, 4, 20_000, 3)
	res, err := SaturationScale(context.Background(), s, Options{Workers: 2, Grid: LogGrid(1, 20_000, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma <= 1 || res.Gamma >= 20_000 {
		t.Fatalf("gamma = %d should be interior to the sweep range", res.Gamma)
	}
	if res.Selector != "mk-proximity" {
		t.Fatalf("selector = %q", res.Selector)
	}
	// The proximity must be lower at both extremes than at gamma.
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if first.Scores[0] >= res.Score || last.Scores[0] >= res.Score {
		t.Fatalf("score curve not peaked: first=%v best=%v last=%v",
			first.Scores[0], res.Score, last.Scores[0])
	}
}

func TestSaturationScaleRefine(t *testing.T) {
	s := uniformStream(t, 6, 3, 5000, 4)
	coarse, err := SaturationScale(context.Background(), s, Options{Workers: 2, Grid: LogGrid(1, 5000, 8)})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := SaturationScale(context.Background(), s, Options{Workers: 2, Grid: LogGrid(1, 5000, 8), Refine: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(refined.Points) <= len(coarse.Points) {
		t.Fatalf("refinement should add points: %d vs %d", len(refined.Points), len(coarse.Points))
	}
	if refined.Score < coarse.Score {
		t.Fatalf("refined score %v below coarse %v", refined.Score, coarse.Score)
	}
	for i := 1; i < len(refined.Points); i++ {
		if refined.Points[i].Delta <= refined.Points[i-1].Delta {
			t.Fatalf("merged points not sorted: %v", refined.Points)
		}
	}
}

func TestMultiSelectorSweep(t *testing.T) {
	s := uniformStream(t, 6, 3, 5000, 6)
	sels := dist.AllSelectors()
	points, err := Sweep(context.Background(), s, LogGrid(1, 5000, 8), Options{Workers: 1, Selectors: sels})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if len(p.Scores) != len(sels) {
			t.Fatalf("point has %d scores, want %d", len(p.Scores), len(sels))
		}
	}
	// Section 7: all metrics except the variation coefficient pick
	// periods in the same ballpark; the variation coefficient collapses
	// to the smallest period.
	vcIdx := 2 // variation-coefficient position in AllSelectors
	bestVC := Best(points, vcIdx)
	if points[bestVC].Delta != points[0].Delta {
		t.Logf("note: variation coefficient picked %d (smallest is %d)", points[bestVC].Delta, points[0].Delta)
	}
}

func TestBestTieBreaksSmaller(t *testing.T) {
	points := []SweepPoint{
		{Delta: 1, Scores: []float64{0.3}},
		{Delta: 2, Scores: []float64{0.3}},
		{Delta: 3, Scores: []float64{0.1}},
	}
	if got := Best(points, 0); got != 0 {
		t.Fatalf("Best = %d, want 0 (ties towards smaller delta)", got)
	}
}

// Property: grids are sorted, within bounds and contain the endpoints.
func TestQuickLogGridInvariants(t *testing.T) {
	f := func(loRaw, hiRaw uint16, pRaw uint8) bool {
		lo := int64(loRaw)%1000 + 1
		hi := lo + int64(hiRaw)
		points := int(pRaw%60) + 2
		g := LogGrid(lo, hi, points)
		if len(g) == 0 || g[0] != lo || g[len(g)-1] != hi {
			return false
		}
		for i := 1; i < len(g); i++ {
			if g[i] <= g[i-1] {
				return false
			}
		}
		return len(g) <= points+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
