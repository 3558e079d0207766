package sweep

// Cancellation suite: Run/RunWindowed must honour context cancellation
// at every stage — before the stream is sorted, during the streaming
// trip enumeration, mid-sweep — exiting cleanly: ctx.Err() returned,
// no goroutine outliving the call, every pooled buffer recycled, and
// the results of periods whose observers already ran left untouched.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linkstream"
	"repro/internal/temporal"
)

// waitGoroutines waits for the goroutine count to fall back to the
// baseline captured before the engine ran; a stuck count is a leaked
// worker or watcher.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine count stuck above baseline %d:\n%s", baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// assertLaneBalance asserts every pooled trip lane handed out since the
// last ResetTripLaneStats went back to the pool — the regression check
// for the mid-sweep-cancel buffer leak.
func assertLaneBalance(t *testing.T, stage string) {
	t.Helper()
	handed, recycled := temporal.TripLaneStats()
	if handed != recycled {
		t.Fatalf("%s: %d trip lanes handed out but %d recycled — pool leak", stage, handed, recycled)
	}
}

func TestRunPreCancelledReturnsBeforeSort(t *testing.T) {
	s := linkstream.New()
	s.EnsureNodes(3)
	// Deliberately out of order: a run that reaches s.Sort() would sort
	// the buffer in place.
	for _, e := range []struct{ u, v, t int64 }{{0, 1, 9}, {1, 2, 3}, {0, 2, 6}} {
		if err := s.AddID(int32(e.u), int32(e.v), e.t); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ResetBuildStats()
	err := Run(ctx, s, []int64{1, 2}, Options{}, newProbe(Needs{Occupancies: true}))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Sorted() {
		t.Fatal("pre-cancelled run must return before sorting the stream")
	}
	if got := RunCount(); got != 0 {
		t.Fatalf("RunCount = %d after pre-cancelled run, want 0 (no engine pass)", got)
	}
	if builds, _ := BuildStats(); builds != 0 {
		t.Fatalf("builds = %d after pre-cancelled run, want 0", builds)
	}
}

// cancellingObserver scores occupancies into its own grid slots and
// cancels the run after observing cancelAt periods. It also requests
// the period's trips, through a shard that discards them, so aborted
// runs exercise the pooled trip lanes too.
type cancellingObserver struct {
	cancelAt int64
	cancel   context.CancelFunc
	seen     atomic.Int64

	mu     sync.Mutex
	sums   []float64 // occupancy sums, one per grid slot
	counts []int
	filled []bool
}

func (o *cancellingObserver) Needs() Needs { return Needs{Occupancies: true, TripShards: true} }

func (o *cancellingObserver) NewTripShard(delta int64, blocks, lanesPerBlock int) TripShard {
	return discardShard{}
}

// discardShard is a TripShard that only lets the engine sweep trips.
type discardShard struct{}

func (discardShard) ObserveTripBlock(block int, lanes [][]temporal.Trip) error { return nil }

func (o *cancellingObserver) Begin(v *StreamView) error {
	o.sums = make([]float64, len(v.Grid))
	o.counts = make([]int, len(v.Grid))
	o.filled = make([]bool, len(v.Grid))
	return nil
}

func (o *cancellingObserver) ObservePeriod(p *Period) error {
	// Chunk order is unspecified; sort values so the floating-point sum
	// is a deterministic fingerprint of the multiset.
	var values []float64
	for _, ch := range p.OccupancyChunks {
		values = append(values, ch...)
	}
	sort.Float64s(values)
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	n := len(values)
	o.mu.Lock()
	o.sums[p.Index] = sum
	o.counts[p.Index] = n
	o.filled[p.Index] = true
	o.mu.Unlock()
	if o.seen.Add(1) >= o.cancelAt && o.cancel != nil {
		o.cancel()
	}
	return nil
}

// TestCancelMidSweepWindowed cancels a multi-∆ windowed run at
// randomized points and asserts a clean exit: ctx.Err() surfaced, all
// goroutines joined, all pooled lanes recycled, and every period that
// was delivered before the cancel identical to the uncancelled run.
func TestCancelMidSweepWindowed(t *testing.T) {
	s := seededStream(t, 14, 4, 4_000, 77)
	grid := []int64{1, 3, 9, 27, 81, 243, 729, 2187}
	segments := func(global, win Observer) []SegmentObserver {
		return []SegmentObserver{
			{Grid: grid, Observers: []Observer{global}},
			{Start: 500, End: 3_500, Grid: grid[:6], Observers: []Observer{win}},
		}
	}

	// Reference run, uncancelled.
	refGlobal := &cancellingObserver{cancelAt: math.MaxInt64}
	refWin := &cancellingObserver{cancelAt: math.MaxInt64}
	if err := RunWindowed(context.Background(), s, Options{Workers: 4, MaxInFlight: 2}, segments(refGlobal, refWin)...); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	baseline := runtime.NumGoroutine()
	temporal.ResetTripLaneStats()
	for iter := 0; iter < 10; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		global := &cancellingObserver{cancelAt: int64(1 + rng.Intn(len(grid))), cancel: cancel}
		win := &cancellingObserver{cancelAt: math.MaxInt64, cancel: cancel}
		err := RunWindowed(ctx, s, Options{Workers: 1 + rng.Intn(4), MaxInFlight: 1 + rng.Intn(3)},
			segments(global, win)...)
		switch err {
		case context.Canceled:
			// The common case: the engine noticed the abort while work
			// remained.
		case nil:
			// A cancel that fires while the last periods are finalising
			// can lose the race with run completion; then every period
			// must have been delivered.
			for i, filled := range global.filled {
				if !filled {
					t.Fatalf("iter %d: nil error but period %d missing", iter, i)
				}
			}
		default:
			t.Fatalf("iter %d: err = %v, want context.Canceled or nil", iter, err)
		}
		// Completed periods must carry exactly the uncancelled results.
		for i, filled := range global.filled {
			if !filled {
				continue
			}
			if global.sums[i] != refGlobal.sums[i] || global.counts[i] != refGlobal.counts[i] {
				t.Fatalf("iter %d: completed period %d diverged after cancel: sum %v (ref %v), count %d (ref %d)",
					iter, i, global.sums[i], refGlobal.sums[i], global.counts[i], refGlobal.counts[i])
			}
		}
		for i, filled := range win.filled {
			if !filled {
				continue
			}
			if win.sums[i] != refWin.sums[i] || win.counts[i] != refWin.counts[i] {
				t.Fatalf("iter %d: completed window period %d diverged after cancel", iter, i)
			}
		}
		cancel()
	}
	waitGoroutines(t, baseline)
	assertLaneBalance(t, "mid-sweep cancel")
}

// cancellingRunObserver consumes the streaming trip pipeline and
// cancels after a few runs, exercising the reorder window's abort path.
type cancellingRunObserver struct {
	cancelAt int
	cancel   context.CancelFunc
	runs     int
	trips    int
}

func (o *cancellingRunObserver) Needs() Needs { return Needs{StreamTripRuns: true} }
func (o *cancellingRunObserver) Begin(v *StreamView) error {
	o.runs, o.trips = 0, 0
	return nil
}
func (o *cancellingRunObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	o.runs++
	o.trips += len(run)
	if o.runs >= o.cancelAt && o.cancel != nil {
		o.cancel()
	}
	return nil
}
func (o *cancellingRunObserver) FinishTripRuns() error { return nil }
func (o *cancellingRunObserver) ObservePeriod(p *Period) error {
	return nil
}

func TestCancelDuringStreamingTripRuns(t *testing.T) {
	s := seededStream(t, 40, 3, 10_000, 9)
	grid := []int64{10, 100, 1000}
	baseline := runtime.NumGoroutine()
	temporal.ResetTripLaneStats()
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int{1, 3, 7} {
			ctx, cancel := context.WithCancel(context.Background())
			obs := &cancellingRunObserver{cancelAt: cancelAt, cancel: cancel}
			err := Run(ctx, s, grid, Options{Workers: workers, MaxInFlight: 2}, obs)
			if err != context.Canceled {
				t.Fatalf("workers=%d cancelAt=%d: err = %v, want context.Canceled", workers, cancelAt, err)
			}
			if obs.runs < cancelAt {
				t.Fatalf("observer saw %d runs, want at least %d", obs.runs, cancelAt)
			}
			cancel()
		}
	}
	waitGoroutines(t, baseline)
	assertLaneBalance(t, "streaming cancel")
}

// TestObserverErrorRecyclesLanes pins the abort path for plain observer
// errors: a mid-sweep failure must recycle the pooled buffers exactly
// like a cancellation does.
func TestObserverErrorRecyclesLanes(t *testing.T) {
	s := seededStream(t, 14, 4, 4_000, 5)
	grid := []int64{1, 7, 49, 343, 2401}
	baseline := runtime.NumGoroutine()
	temporal.ResetTripLaneStats()
	for iter := 0; iter < 4; iter++ {
		obs := &failingObserver{probe: *newProbe(allNeeds()), failAt: iter}
		err := Run(context.Background(), s, grid, Options{Workers: 3, MaxInFlight: 2}, obs)
		if err == nil {
			t.Fatal("expected observer error")
		}
	}
	waitGoroutines(t, baseline)
	assertLaneBalance(t, "observer error")
}

// TestRunStatsAndProgress checks the per-run counters and the progress
// stream: stats must mirror the package counters for an isolated run,
// and progress events must be monotone and complete.
func TestRunStatsAndProgress(t *testing.T) {
	s := seededStream(t, 12, 4, 3_000, 3)
	grid := []int64{1, 10, 100, 1000}

	var stats RunStats
	var mu sync.Mutex
	var events []ProgressEvent
	opt := Options{
		Workers:     2,
		MaxInFlight: 2,
		Stats:       &stats,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	probeObs := newProbe(Needs{Occupancies: true, TripShards: true})
	loss := &cancellingRunObserver{cancelAt: math.MaxInt64} // streaming consumer, never cancels
	if err := Run(context.Background(), s, grid, opt, probeObs, loss); err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 1 {
		t.Fatalf("Passes = %d, want 1", stats.Passes)
	}
	if stats.Builds != int64(len(grid)) {
		t.Fatalf("Builds = %d, want %d", stats.Builds, len(grid))
	}
	if stats.Periods != int64(len(grid)) {
		t.Fatalf("Periods = %d, want %d", stats.Periods, len(grid))
	}
	if stats.StreamBuilds != 1 {
		t.Fatalf("StreamBuilds = %d, want 1", stats.StreamBuilds)
	}
	if stats.MaxResident < 1 || stats.MaxResident > 2 {
		t.Fatalf("MaxResident = %d, want within [1, 2]", stats.MaxResident)
	}

	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	if events[0].Stage != StagePlanned {
		t.Fatalf("first event stage = %v, want StagePlanned", events[0].Stage)
	}
	sawStream := false
	periodsDone := 0
	for _, ev := range events {
		if ev.PeriodsTotal != len(grid) {
			t.Fatalf("PeriodsTotal = %d, want %d", ev.PeriodsTotal, len(grid))
		}
		switch ev.Stage {
		case StageStreamTrips:
			sawStream = true
		case StagePeriod:
			if ev.PeriodsDone <= periodsDone {
				t.Fatalf("PeriodsDone not strictly increasing: %d after %d", ev.PeriodsDone, periodsDone)
			}
			periodsDone = ev.PeriodsDone
		}
	}
	if !sawStream {
		t.Fatal("no StageStreamTrips event")
	}
	if periodsDone != len(grid) {
		t.Fatalf("final PeriodsDone = %d, want %d", periodsDone, len(grid))
	}
}
