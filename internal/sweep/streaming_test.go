package sweep

import (
	"context"

	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/temporal"
)

// runRecorder is a streaming trip consumer that copies every delivered
// run, for asserting the delivery contract.
type runRecorder struct {
	view     *StreamView
	dests    []int32
	flat     []temporal.Trip
	finished bool
	periods  atomic.Int64 // ObservePeriod may run concurrently for different periods
}

func (o *runRecorder) Needs() Needs { return Needs{StreamTripRuns: true} }
func (o *runRecorder) Begin(v *StreamView) error {
	o.view = v
	o.dests = o.dests[:0]
	o.flat = o.flat[:0]
	o.finished = false
	return nil
}
func (o *runRecorder) ObserveTripRun(dest int32, run []temporal.Trip) error {
	if o.finished {
		return errors.New("run after FinishTripRuns")
	}
	if len(run) == 0 {
		return errors.New("empty run delivered")
	}
	for _, tr := range run {
		if tr.V != dest {
			return errors.New("run contains a foreign destination")
		}
	}
	o.dests = append(o.dests, dest)
	o.flat = append(o.flat, run...)
	return nil
}
func (o *runRecorder) FinishTripRuns() error {
	o.finished = true
	return nil
}
func (o *runRecorder) ObservePeriod(p *Period) error {
	if !o.finished {
		return errors.New("period observed before FinishTripRuns")
	}
	o.periods.Add(1)
	return nil
}

// TestStreamTripRunsDelivery checks the streaming enumeration contract
// for several worker counts and in-flight bounds: destinations arrive
// strictly increasing, runs concatenate to exactly the destination-major
// enumeration of CollectTripsCSR, and Finish precedes every period.
func TestStreamTripRunsDelivery(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			s := seededStream(t, 9, 3, 3000, seed)
			want := temporal.CollectTripsCSR(
				temporal.Config{N: s.NumNodes(), Directed: directed, Workers: 1},
				temporal.StreamCSR(s, directed))
			for _, workers := range []int{1, 4} {
				for _, inFlight := range []int{1, 2, 0} {
					rec := &runRecorder{}
					ResetBuildStats()
					err := Run(context.Background(), s, []int64{10, 100}, Options{Directed: directed, Workers: workers, MaxInFlight: inFlight}, rec)
					if err != nil {
						t.Fatal(err)
					}
					if builds, _ := BuildStats(); builds != 0 {
						t.Fatalf("streaming-only run built %d period CSRs", builds)
					}
					if sb := StreamBuildCount(); sb != 1 {
						t.Fatalf("StreamBuildCount = %d, want 1", sb)
					}
					for i := 1; i < len(rec.dests); i++ {
						if rec.dests[i] <= rec.dests[i-1] {
							t.Fatalf("destinations not strictly increasing: %v", rec.dests)
						}
					}
					if len(rec.flat) != len(want) {
						t.Fatalf("workers=%d inflight=%d: %d trips delivered, want %d",
							workers, inFlight, len(rec.flat), len(want))
					}
					for i := range want {
						if rec.flat[i] != want[i] {
							t.Fatalf("workers=%d inflight=%d trip %d: %+v != %+v (destination-major order required)",
								workers, inFlight, i, rec.flat[i], want[i])
						}
					}
					if n := rec.periods.Load(); n != 2 {
						t.Fatalf("observed %d periods, want 2", n)
					}
				}
			}
		}
	}
}

// countingShard tallies trips per lane. Per the TripShard contract,
// different blocks arrive concurrently, so both tallies are per-block
// slices written at distinct indices — never a shared map.
type countingShard struct {
	lanes   int
	perLane []int
	blocks  []int32
}

// shardProbe hands out countingShards and records each period's
// sharded trip total.
type shardProbe struct {
	probe
	shards []*countingShard
	totals []int
}

func (o *shardProbe) Needs() Needs {
	return Needs{TripShards: true}
}

func (o *shardProbe) Begin(v *StreamView) error {
	o.totals = make([]int, len(v.Grid))
	return o.probe.Begin(v)
}

func (o *shardProbe) NewTripShard(delta int64, blocks, lanesPerBlock int) TripShard {
	sh := &countingShard{lanes: lanesPerBlock, perLane: make([]int, blocks*lanesPerBlock), blocks: make([]int32, blocks)}
	o.shards = append(o.shards, sh)
	return sh
}

func (sh *countingShard) ObserveTripBlock(block int, lanes [][]temporal.Trip) error {
	if len(lanes) != sh.lanes {
		return errors.New("wrong lane count")
	}
	sh.blocks[block]++
	for l, lane := range lanes {
		sh.perLane[block*sh.lanes+l] += len(lane)
	}
	return nil
}

func (o *shardProbe) ObservePeriod(p *Period) error {
	sh, ok := p.Shard.(*countingShard)
	if !ok {
		return errors.New("Period.Shard is not this observer's shard")
	}
	for _, seen := range sh.blocks {
		if seen != 1 {
			return errors.New("a block was observed more than once")
		}
	}
	for _, c := range sh.perLane {
		o.totals[p.Index] += c
	}
	return o.probe.ObservePeriod(p)
}

// TestShardedTripObserver checks the per-block fan-out: every block of
// every period reaches the observer's shard exactly once, on any
// worker count, Period.Shard hands the right shard back, and the shards
// together see every minimal trip of the period.
func TestShardedTripObserver(t *testing.T) {
	s := seededStream(t, 10, 3, 3000, 5)
	grid := []int64{4, 50, 600, 3000}
	for _, workers := range []int{1, 4} {
		obs := &shardProbe{probe: *newProbe(Needs{})}
		if err := Run(context.Background(), s, grid, Options{Workers: workers, MaxInFlight: 2}, obs); err != nil {
			t.Fatal(err)
		}
		if len(obs.shards) != len(grid) {
			t.Fatalf("workers=%d: %d shards created for %d periods", workers, len(obs.shards), len(grid))
		}
		blocks := temporal.DestBlocks(s.NumNodes())
		for i, sh := range obs.shards {
			if len(sh.blocks) != blocks {
				t.Fatalf("workers=%d period %d: shard sized for %d blocks, want %d", workers, i, len(sh.blocks), blocks)
			}
			for b, seen := range sh.blocks {
				if seen != 1 {
					t.Fatalf("workers=%d period %d: block %d observed %d times, want exactly 1", workers, i, b, seen)
				}
			}
		}
		var scratch temporal.CSRScratch
		for i, delta := range grid {
			c := temporal.BuildCSR(obs.view.Events, obs.view.T0, delta, &scratch)
			want := len(temporal.CollectTripsCSR(temporal.Config{N: s.NumNodes(), Workers: 1}, c))
			if obs.totals[i] != want {
				t.Fatalf("workers=%d delta=%d: shards saw %d trips, want %d", workers, delta, obs.totals[i], want)
			}
		}
	}
}

// TestStreamTripRunsValidation pins the registration errors of the
// streaming extensions.
func TestStreamTripRunsValidation(t *testing.T) {
	s := seededStream(t, 4, 2, 100, 6)
	err := Run(context.Background(), s, []int64{10}, Options{}, observerFunc{needs: Needs{StreamTripRuns: true}})
	if err == nil || !strings.Contains(err.Error(), "TripRunObserver") {
		t.Fatalf("StreamTripRuns without TripRunObserver: err = %v", err)
	}
	err = Run(context.Background(), s, []int64{10}, Options{}, observerFunc{needs: Needs{TripShards: true}})
	if err == nil || !strings.Contains(err.Error(), "ShardedTripObserver") {
		t.Fatalf("TripShards without ShardedTripObserver: err = %v", err)
	}
}

// TestStreamTripRunsErrorAborts propagates a consumer error out of the
// bounded streaming enumeration.
func TestStreamTripRunsErrorAborts(t *testing.T) {
	s := seededStream(t, 10, 3, 2000, 7)
	boom := &failingRunObserver{}
	err := Run(context.Background(), s, []int64{10}, Options{Workers: 4, MaxInFlight: 2}, boom)
	if err == nil || err.Error() != "run boom" {
		t.Fatalf("err = %v, want run boom", err)
	}
}

type failingRunObserver struct{ runRecorder }

func (o *failingRunObserver) ObserveTripRun(dest int32, run []temporal.Trip) error {
	if dest >= 4 {
		return errors.New("run boom")
	}
	return o.runRecorder.ObserveTripRun(dest, run)
}
