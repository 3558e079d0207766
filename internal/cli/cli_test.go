package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro"
)

func bindFor(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, Defaults{Points: 48, Metrics: "occupancy", MetricsHelp: "metrics"})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBindDefaultsAndOverrides(t *testing.T) {
	f := bindFor(t)
	if f.Points != 48 || f.Metrics != "occupancy" || f.Directed || f.MaxInFlight != 0 {
		t.Fatalf("defaults: %+v", f)
	}
	f = bindFor(t, "-directed", "-points", "12", "-min", "60", "-workers", "3",
		"-max-inflight", "2", "-metrics", "loss", "-engine-stats")
	if !f.Directed || f.Points != 12 || f.MinDelta != 60 || f.Workers != 3 ||
		f.MaxInFlight != 2 || f.Metrics != "loss" || !f.EngineStats {
		t.Fatalf("overrides: %+v", f)
	}
}

func TestParseMetricsBaseAndAllowed(t *testing.T) {
	f := bindFor(t, "-metrics", "loss,occupancy")
	ms, err := f.ParseMetrics(
		[]repro.Metric{repro.MetricOccupancy},
		[]repro.Metric{repro.MetricOccupancy, repro.MetricTransitionLoss})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != repro.MetricOccupancy || ms[1] != repro.MetricTransitionLoss {
		t.Fatalf("metrics = %v", ms)
	}
	// Base metrics never duplicate.
	f = bindFor(t, "-metrics", "occupancy")
	ms, err = f.ParseMetrics([]repro.Metric{repro.MetricOccupancy}, nil)
	if err != nil || len(ms) != 1 {
		t.Fatalf("metrics = %v, err = %v", ms, err)
	}
	// Disallowed metric rejected.
	f = bindFor(t, "-metrics", "classic")
	if _, err := f.ParseMetrics(
		[]repro.Metric{repro.MetricOccupancy},
		[]repro.Metric{repro.MetricTransitionLoss}); err == nil {
		t.Fatal("disallowed metric should error")
	}
	// Unknown metric rejected.
	f = bindFor(t, "-metrics", "bogus")
	if _, err := f.ParseMetrics(nil, nil); err == nil {
		t.Fatal("unknown metric should error")
	}
}

// TestPlanOptionsMatchFlags pins the flag→option mapping: a plan built
// from CLI flags must behave exactly like one built with the
// corresponding options by hand.
func TestPlanOptionsMatchFlags(t *testing.T) {
	f := bindFor(t, "-points", "7", "-min", "3", "-workers", "2", "-max-inflight", "1")
	s := repro.NewStream()
	for i := int64(0); i < 40; i++ {
		u, v := "a", "b"
		if i%3 == 0 {
			v = "c"
		}
		if i%2 == 0 {
			u = "d"
		}
		if err := s.Add(u, v, (i*37)%500); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := repro.NewAnalysis(s, f.PlanOptions(repro.MetricOccupancy)...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := repro.LogGrid(3, s.Duration(), 7)
	occ := rep.Occupancy()
	if len(occ) != len(want) {
		t.Fatalf("curve has %d points, want %d", len(occ), len(want))
	}
	for i, p := range occ {
		if p.Delta != want[i] {
			t.Fatalf("grid mismatch at %d: %d vs %d", i, p.Delta, want[i])
		}
	}
}

func TestReadStream(t *testing.T) {
	f := bindFor(t)
	s, err := f.ReadStream(strings.NewReader("a b 1\nb c 2\n"))
	if err != nil || s.NumEvents() != 2 {
		t.Fatalf("s = %v, err = %v", s, err)
	}
	if _, err := f.ReadStream(strings.NewReader("# empty\n")); err == nil {
		t.Fatal("empty stream should error")
	}
	f = bindFor(t, "-in", "/nonexistent/stream.txt")
	if _, err := f.ReadStream(nil); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestEngineStatsLine(t *testing.T) {
	line := EngineStatsLine(repro.EngineStats{Builds: 5, Dedups: 2, StreamBuilds: 1, MaxResident: 3, Passes: 2,
		ArenaHanded: 5, ArenaReused: 3, ArenaRecycled: 5})
	for _, want := range []string{"5 period CSR builds", "+2 deduplicated", "1 stream trip enumerations",
		"peak 3 periods resident", "2 passes", "5 handed (3 reused)", "5 recycled"} {
		if !strings.Contains(line, want) {
			t.Fatalf("missing %q in %q", want, line)
		}
	}
}

// TestErrorPaths is the table-driven flag→option error surface: every
// misuse of the shared flags must fail at the layer that owns it —
// parse time for malformed values, Input for conflicting sources,
// ParseMetrics for unknown metric names — with an error naming the
// problem.
func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		stage   string // "parse" | "input" | "metrics"
		wantSub string
	}{
		{
			name:    "conflicting -in and -stream",
			args:    []string{"-in", "a.txt", "-stream", "b.lsc"},
			stage:   "input",
			wantSub: "mutually exclusive",
		},
		{
			name:    "unknown metric name",
			args:    []string{"-metrics", "vibes"},
			stage:   "metrics",
			wantSub: "vibes",
		},
		{
			name:    "non-numeric points",
			args:    []string{"-points", "many"},
			stage:   "parse",
			wantSub: "invalid value",
		},
		{
			name:    "non-numeric min delta",
			args:    []string{"-min", "1h"},
			stage:   "parse",
			wantSub: "invalid value",
		},
		{
			name:    "unknown flag",
			args:    []string{"-gamma-please"},
			stage:   "parse",
			wantSub: "flag provided but not defined",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Bind(fs, Defaults{Points: 48, Metrics: "occupancy", MetricsHelp: "metrics"})
			err := fs.Parse(tc.args)
			if tc.stage == "parse" {
				if err == nil {
					t.Fatal("parse accepted the arguments")
				}
				if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("parse error %q does not mention %q", err, tc.wantSub)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse: %v", err)
			}

			switch tc.stage {
			case "input":
				_, _, err = f.Input(strings.NewReader(""))
			case "metrics":
				_, err = f.ParseMetrics([]repro.Metric{repro.MetricOccupancy}, nil)
			default:
				t.Fatalf("unknown stage %q", tc.stage)
			}
			if err == nil {
				t.Fatalf("%s stage accepted the flags", tc.stage)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("%s error %q does not mention %q", tc.stage, err, tc.wantSub)
			}
		})
	}
}

// TestBindServeDefaults pins the serving flag surface and its
// defaults.
func TestBindServeDefaults(t *testing.T) {
	fs := flag.NewFlagSet("tsserve", flag.ContinueOnError)
	f := BindServe(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Addr != "localhost:7487" || f.StreamRoot != "" || f.MaxJobs != 0 || f.TenantBudget != 0 {
		t.Fatalf("defaults: %+v", f)
	}
	fs = flag.NewFlagSet("tsserve", flag.ContinueOnError)
	f = BindServe(fs)
	err := fs.Parse([]string{"-addr", ":0", "-stream-root", "/srv/streams",
		"-max-jobs", "9", "-tenant-budget", "3", "-cache-entries", "7",
		"-workers", "2", "-max-inflight", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Addr != ":0" || f.StreamRoot != "/srv/streams" || f.MaxJobs != 9 ||
		f.TenantBudget != 3 || f.CacheEntries != 7 || f.Workers != 2 ||
		f.MaxInFlight != 1 {
		t.Fatalf("overrides: %+v", f)
	}
}
