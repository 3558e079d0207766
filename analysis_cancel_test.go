package repro

// Cancellation regressions at the plan level: an already-cancelled
// context must surface before the stream is sorted or any engine pass
// starts, and a cancel mid-plan must abort cleanly across passes.

import (
	"context"
	"testing"

	"repro/internal/sweep"
)

func TestPlanRunPreCancelled(t *testing.T) {
	s := NewStream()
	// Out-of-order events: reaching the engine's sort would reorder
	// them in place.
	for _, e := range []struct {
		u, v string
		t    int64
	}{{"a", "b", 30}, {"b", "c", 10}, {"a", "c", 20}} {
		if err := s.Add(e.u, e.v, e.t); err != nil {
			t.Fatal(err)
		}
	}
	// An explicit grid keeps NewAnalysis from deriving one (which would
	// sort the stream while measuring its resolution).
	plan, err := NewAnalysis(s, WithGrid(1, 5, 25))
	if err != nil {
		t.Fatal(err)
	}
	if s.Sorted() {
		t.Fatal("building the plan must not sort the stream")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sweep.ResetBuildStats()
	if _, err := plan.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Sorted() {
		t.Fatal("pre-cancelled Run must return before sorting the stream")
	}
	if got := sweep.RunCount(); got != 0 {
		t.Fatalf("RunCount = %d after pre-cancelled Run, want 0", got)
	}

	// Same contract for the adaptive run.
	adPlan, err := NewAnalysis(uniformWorkload(t), WithAdaptive(AdaptiveConfig{}), WithGridPoints(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adPlan.Run(ctx); err != context.Canceled {
		t.Fatalf("adaptive err = %v, want context.Canceled", err)
	}
}

// TestPlanRunCancelMidPlan cancels from a progress callback partway
// through the first pass of a refining plan and checks the abort is
// clean and the error is the context's.
func TestPlanRunCancelMidPlan(t *testing.T) {
	s := uniformWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	plan, err := NewAnalysis(s,
		WithGrid(LogGrid(1, 50_000, 12)...),
		WithRefine(4),
		WithMaxInFlight(1),
		WithProgress(func(ev ProgressEvent) {
			if ev.Stage == ProgressPeriod && ev.PeriodsDone >= 3 && !fired {
				fired = true
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled Run must not return a report")
	}
	if !fired {
		t.Fatal("progress hook never fired")
	}
}
