package repro

// Distributed execution tests: partition shape, partial validation,
// and the parity pin — DistributedRun over an in-process runner is
// byte-identical to a local Plan.Run of the same spec, across metric
// sets, windows, refinement and shard counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/synth"
)

func shardWorkload(t testing.TB, seed int64) *Stream {
	t.Helper()
	s, err := synth.TimeUniform(synth.TimeUniformConfig{
		Nodes: 9, LinksPerPair: 3, T: 20_000, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func inlineSpec(t testing.TB, s *Stream, mut func(*PlanSpec)) *PlanSpec {
	t.Helper()
	spec := &PlanSpec{Inline: InlineEventsOf(s)}
	if mut != nil {
		mut(spec)
	}
	return spec
}

// localRun is the reference: a single-process Plan.Run of the spec.
func localRun(t *testing.T, spec *PlanSpec) *Report {
	t.Helper()
	plan, err := spec.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rep, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedRunParity is the parity pin: for every combination
// of metrics, windows, refinement and shard count, the
// folded distributed report is byte-identical to the local one.
func TestDistributedRunParity(t *testing.T) {
	s := shardWorkload(t, 5)
	t0, t1, _ := s.Span()
	mid := (t0 + t1) / 2
	cases := []struct {
		name string
		mut  func(*PlanSpec)
	}{
		{"occupancy default grid", func(spec *PlanSpec) {
			spec.GridPoints = 9
		}},
		{"all curve metrics refined", func(spec *PlanSpec) {
			spec.Metrics = []string{"occupancy", "classic", "distance", "loss", "elongation"}
			spec.GridPoints = 8
			spec.Refine = 3
		}},
		{"snapshots refined", func(spec *PlanSpec) {
			spec.Metrics = []string{"occupancy", "degree", "clustering", "components"}
			spec.GridPoints = 7
			spec.Refine = 2
		}},
		{"windows and global", func(spec *PlanSpec) {
			spec.Metrics = []string{"occupancy", "classic"}
			spec.GridPoints = 7
			spec.Refine = 2
			spec.Windows = []Window{
				{Start: t0, End: mid},
				{Start: mid, End: t1 + 1},
			}
		}},
		{"windows only", func(spec *PlanSpec) {
			spec.Metrics = []string{"occupancy", "loss"}
			spec.GridPoints = 6
			spec.Refine = 2
			spec.Windows = []Window{{Start: t0, End: mid}, {Start: mid, End: t1 + 1}}
			spec.WindowsOnly = true
		}},
		{"explicit grid selectors", func(spec *PlanSpec) {
			spec.Grid = LogGrid(1, 20_000, 11)
			spec.Selectors = []string{"mk-proximity", "shannon-entropy"}
			spec.Refine = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := inlineSpec(t, s, tc.mut)
			want := reportJSON(t, localRun(t, spec))
			for _, shards := range []int{1, 2, 3, 5} {
				var calls atomic.Int64
				runner := func(ctx context.Context, sh ShardPlan) (*Report, error) {
					calls.Add(1)
					return RunShardLocal(ctx, sh)
				}
				rep, err := DistributedRun(context.Background(), spec, shards, runner)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := reportJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("shards=%d: distributed report diverges from local\nlocal: %s\ndist:  %s", shards, want, got)
				}
				if shards > 1 && calls.Load() < 2 {
					t.Fatalf("shards=%d: runner called %d times, sharding did not happen", shards, calls.Load())
				}
				if rep.EngineStats().Passes != 0 {
					t.Fatalf("folded report carries engine stats: %+v", rep.EngineStats())
				}
			}
		})
	}
}

// TestDistributedRunColumnarParity pins parity over a mapped columnar
// stream ref — the shape the real coordinator dispatches — and that
// the partitioner pins the header hash into every shard spec.
func TestDistributedRunColumnarParity(t *testing.T) {
	s := shardWorkload(t, 8)
	path := columnarPathOf(t, s)
	spec := &PlanSpec{
		Stream:     &StreamRef{Path: path},
		Metrics:    []string{"occupancy", "classic"},
		GridPoints: 8,
		Refine:     2,
	}
	want := reportJSON(t, localRun(t, spec))

	shards, err := PartitionSpec(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if sh.Spec.Stream == nil || sh.Spec.Stream.Hash == "" {
			t.Fatalf("lane %d: shard spec lacks the pinned header hash: %+v", sh.Lane, sh.Spec.Stream)
		}
		if sh.Spec.Refine != 0 {
			t.Fatalf("lane %d: shard spec kept refinement knobs", sh.Lane)
		}
	}
	rep, err := DistributedRun(context.Background(), spec, 3, RunShardLocal)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("columnar distributed report diverges from local\nlocal: %s\ndist:  %s", want, got)
	}
}

func TestPartitionSpecShape(t *testing.T) {
	s := shardWorkload(t, 3)
	t0, t1, _ := s.Span()
	spec := inlineSpec(t, s, func(spec *PlanSpec) {
		spec.Grid = LogGrid(1, 20_000, 10)
		spec.Refine = 4
		spec.Windows = []Window{{Start: t0, End: t1 + 1}}
	})
	shards, err := PartitionSpec(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var global, window int
	var globalDeltas []int64
	for i, sh := range shards {
		if sh.Lane != i {
			t.Fatalf("lane %d out of order (index %d)", sh.Lane, i)
		}
		switch sh.Scope {
		case GlobalScope:
			global++
			globalDeltas = append(globalDeltas, sh.Deltas...)
			if sh.Spec.WindowsOnly || len(sh.Spec.Windows) != 0 {
				t.Fatalf("global shard carries windows: %+v", sh.Spec)
			}
		case 0:
			window++
			if !sh.Spec.WindowsOnly || len(sh.Spec.Windows) != 1 {
				t.Fatalf("window shard shape: %+v", sh.Spec)
			}
			if sh.Start != t0 || sh.End != t1+1 {
				t.Fatalf("window shard bounds [%d, %d)", sh.Start, sh.End)
			}
		default:
			t.Fatalf("unexpected scope %d", sh.Scope)
		}
	}
	if global != 3 || window != 3 {
		t.Fatalf("got %d global and %d window shards, want 3 and 3", global, window)
	}
	if fmt.Sprint(globalDeltas) != fmt.Sprint(spec.Grid) {
		t.Fatalf("global chunks %v do not concatenate to the grid %v", globalDeltas, spec.Grid)
	}

	adaptive := inlineSpec(t, s, func(spec *PlanSpec) {
		spec.Adaptive = &AdaptiveSpec{Bins: 16}
	})
	if _, err := PartitionSpec(adaptive, 2); err == nil {
		t.Fatal("adaptive spec partitioned")
	}
}

// TestDistributedRunRejectsCorruptPartials: a runner handing back a
// wrong-shaped partial (the corrupted-partial fault) fails the run
// instead of folding garbage.
func TestDistributedRunRejectsCorruptPartials(t *testing.T) {
	s := shardWorkload(t, 4)
	spec := inlineSpec(t, s, func(spec *PlanSpec) { spec.GridPoints = 8 })

	corruptions := map[string]func(sh ShardPlan) ShardPlan{
		"shifted grid": func(sh ShardPlan) ShardPlan {
			cp := *sh.Spec
			grid := append([]int64(nil), cp.Grid...)
			grid[0]++
			cp.Grid = grid
			sh.Spec = &cp
			return sh
		},
		"dropped delta": func(sh ShardPlan) ShardPlan {
			cp := *sh.Spec
			cp.Grid = cp.Grid[:len(cp.Grid)-1]
			sh.Spec = &cp
			return sh
		},
		"extra metric": func(sh ShardPlan) ShardPlan {
			cp := *sh.Spec
			cp.Metrics = []string{"occupancy", "degree"}
			sh.Spec = &cp
			return sh
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			runner := func(ctx context.Context, sh ShardPlan) (*Report, error) {
				return RunShardLocal(ctx, corrupt(sh))
			}
			if _, err := DistributedRun(context.Background(), spec, 2, runner); err == nil {
				t.Fatal("corrupt partial folded without error")
			}
		})
	}

	t.Run("runner error propagates", func(t *testing.T) {
		boom := errors.New("worker lost")
		runner := func(ctx context.Context, sh ShardPlan) (*Report, error) {
			if sh.Lane == 1 {
				return nil, boom
			}
			return RunShardLocal(ctx, sh)
		}
		if _, err := DistributedRun(context.Background(), spec, 3, runner); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped %v", err, boom)
		}
	})
}

func TestValidatePartial(t *testing.T) {
	s := shardWorkload(t, 6)
	t0, t1, _ := s.Span()
	spec := inlineSpec(t, s, func(spec *PlanSpec) {
		spec.Metrics = []string{"occupancy", "classic", "degree"}
		spec.GridPoints = 6
		spec.Windows = []Window{{Start: t0, End: t1 + 1}}
	})
	shards, err := PartitionSpec(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		rep, err := RunShardLocal(context.Background(), sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePartial(sh, rep); err != nil {
			t.Fatalf("lane %d honest partial rejected: %v", sh.Lane, err)
		}
		if err := ValidatePartial(sh, nil); err == nil {
			t.Fatal("nil partial accepted")
		}
		// A partial from the wrong scope must be rejected.
		other := shards[(sh.Lane+1)%len(shards)]
		if other.Scope != sh.Scope {
			if err := ValidatePartial(sh, mustRun(t, other)); err == nil {
				t.Fatalf("lane %d accepted a partial from scope %d", sh.Lane, other.Scope)
			}
		}
	}

	// Wrong window bounds.
	winShard := shards[len(shards)-1]
	if winShard.Scope == GlobalScope {
		t.Fatal("expected a window shard last")
	}
	moved := winShard
	moved.Start++
	if err := ValidatePartial(moved, mustRun(t, winShard)); err == nil {
		t.Fatal("window-bounds mismatch accepted")
	}
	// Wrong deltas.
	skewed := winShard
	skewed.Deltas = append([]int64(nil), winShard.Deltas...)
	skewed.Deltas[0]++
	if err := ValidatePartial(skewed, mustRun(t, winShard)); err == nil {
		t.Fatal("delta mismatch accepted")
	}
}

func mustRun(t *testing.T, sh ShardPlan) *Report {
	t.Helper()
	rep, err := RunShardLocal(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWithWindowsOnly: the option drops the global scope (empty global
// curves, no scale) while the window results match a with-global run's
// windows exactly; invalid combinations are rejected at plan build.
func TestWithWindowsOnly(t *testing.T) {
	s := shardWorkload(t, 7)
	t0, t1, _ := s.Span()
	win := Window{Start: t0, End: t1 + 1}
	base := []Option{
		WithMetrics(MetricOccupancy, MetricClassic),
		WithGridPoints(6), WithWindows(win),
	}

	full, err := NewAnalysis(s, base...)
	if err != nil {
		t.Fatal(err)
	}
	fullRep, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	only, err := NewAnalysis(s, append(append([]Option(nil), base...), WithWindowsOnly())...)
	if err != nil {
		t.Fatal(err)
	}
	onlyRep, err := only.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := onlyRep.Scale(); ok {
		t.Fatal("windows-only run reports a global scale")
	}
	if len(onlyRep.Occupancy()) != 0 || len(onlyRep.Classic()) != 0 {
		t.Fatal("windows-only run carries global curves")
	}
	a, b := fullRep.Window(0), onlyRep.Window(0)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("windows-only window diverges:\nfull: %s\nonly: %s", aj, bj)
	}
	if st := onlyRep.EngineStats(); st.Passes == 0 {
		t.Fatal("windows-only run recorded no window passes")
	}

	bad := [][]Option{
		{WithWindowsOnly()},
		{WithWindowsOnly(), WithAdaptive(AdaptiveConfig{})},
		{WithWindowsOnly(), WithWindows(win), WithObservers(NewOccupancyObserver(nil))},
	}
	for i, opts := range bad {
		if _, err := NewAnalysis(s, opts...); err == nil {
			t.Fatalf("invalid windows-only combination %d accepted", i)
		}
	}
}

// TestPlanCloseIdempotent: Close on a mapped plan is safe to call
// twice (satellite: double-close of the mapped stream is a no-op) and
// concurrently.
func TestPlanCloseIdempotent(t *testing.T) {
	s := shardWorkload(t, 9)
	path := columnarPathOf(t, s)
	plan, err := NewAnalysis(nil, WithStreamPath(path), WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := plan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}

	plan2, err := NewAnalysis(nil, WithStreamPath(path), WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := plan2.Close(); err != nil {
				t.Errorf("concurrent Close = %v", err)
			}
		}()
	}
	wg.Wait()

	// In-memory plans have nothing to close, twice over.
	mem, err := NewAnalysis(s, WithGridPoints(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}
