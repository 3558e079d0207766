package core

import (
	"context"

	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/sweep"
)

// TestSaturationScaleWithMatchesSaturationScale pins the factoring:
// driving the search through an explicit runner is bit-identical to
// the end-to-end entry point, with and without refinement.
func TestSaturationScaleWithMatchesSaturationScale(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 2)
	for _, refine := range []int{0, 4} {
		opt := Options{Grid: LogGrid(1, 3000, 10), Refine: refine, Selectors: dist.AllSelectors()}
		want, err := SaturationScale(context.Background(), s, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SaturationScaleWith(context.Background(), opt, func(grid []int64, obs sweep.Observer) error {
			return sweep.Run(context.Background(), s, grid, sweep.Options{}, obs)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("refine=%d:\n got %+v\nwant %+v", refine, got, want)
		}
	}
}

// TestScaleSearchSweepsEachDeltaOnce asserts the staged refinement
// never rebuilds an already-scored ∆: the total CSR builds of a refined
// SaturationScale equal the number of distinct points in its curve.
func TestScaleSearchSweepsEachDeltaOnce(t *testing.T) {
	s := mixedStream(t, 7, 2, 3000, 3)
	opt := Options{Grid: LogGrid(1, 3000, 8), Refine: 5}
	sweep.ResetBuildStats()
	res, err := SaturationScale(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	builds, _ := sweep.BuildStats()
	if builds != int64(len(res.Points)) {
		t.Fatalf("built %d period CSRs for %d distinct scored deltas", builds, len(res.Points))
	}
	if len(res.Points) <= len(opt.Grid) {
		t.Fatalf("refinement added no points (%d <= %d); workload does not exercise the second round",
			len(res.Points), len(opt.Grid))
	}
}

// TestScaleSearchProtocol covers the state machine's misuse errors and
// the request/absorb cycle.
func TestScaleSearchProtocol(t *testing.T) {
	if _, err := NewScaleSearch(Options{}); err == nil {
		t.Fatal("missing grid must error")
	}
	if _, err := NewScaleSearch(Options{Grid: []int64{0}}); err == nil {
		t.Fatal("non-positive delta must error")
	}

	sc, err := NewScaleSearch(Options{Grid: []int64{2, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Absorb(); err == nil {
		t.Fatal("Absorb before Next must error")
	}
	if _, err := sc.Result(); err == nil {
		t.Fatal("Result before convergence must error")
	}
	grid, obs, ok := sc.Next()
	if !ok || len(grid) != 2 || obs == nil {
		t.Fatalf("Next: grid=%v ok=%v", grid, ok)
	}
	if _, _, ok := sc.Next(); ok {
		t.Fatal("second Next without Absorb must report ok=false")
	}
	s := mixedStream(t, 5, 2, 500, 4)
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, obs); err != nil {
		t.Fatal(err)
	}
	if err := sc.Absorb(); err != nil {
		t.Fatal(err)
	}
	if !sc.Done() {
		t.Fatal("Refine=0 search must converge after one round")
	}
	res, err := sc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Gamma == 0 {
		t.Fatalf("result = %+v", res)
	}
}

// runSearch drives a SaturationScale search over the stream and returns
// the result plus the number of engine passes it took.
func runSearch(t *testing.T, s *linkstream.Stream, opt Options) (Result, int) {
	t.Helper()
	passes := 0
	res, err := SaturationScaleWith(context.Background(), opt, func(grid []int64, obs sweep.Observer) error {
		passes++
		return sweep.Run(context.Background(), s, grid, sweep.Options{}, obs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, passes
}

// TestRefineRoundBounded pins the Refine semantics: refinement is
// exactly one extra engine pass adding at most Refine fresh points
// over the initial grid, and Refine=0 disables it entirely.
func TestRefineRoundBounded(t *testing.T) {
	grid := LogGrid(1, 3000, 9)
	for seed := int64(2); seed <= 6; seed++ {
		s := mixedStream(t, 7, 2, 3000, seed)
		for _, refine := range []int{0, 1, 3, 6} {
			res, passes := runSearch(t, s, Options{Grid: grid, Refine: refine})
			extra := len(res.Points) - len(grid)
			if extra > refine {
				t.Fatalf("seed=%d refine=%d: refinement added %d points, bound is %d", seed, refine, extra, refine)
			}
			if refine == 0 && extra != 0 {
				t.Fatalf("seed=%d refine=0 must not refine: %d points for a %d-point grid", seed, len(res.Points), len(grid))
			}
			if want := 1 + min(extra, 1); passes != want {
				t.Fatalf("seed=%d refine=%d: %d engine passes for %d fresh points, want %d", seed, refine, passes, extra, want)
			}
		}
	}
}
