package metrics

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// engineResult is one engine pass's output across all five observers.
type engineResult struct {
	Deg []DegreePoint
	Clu []ClusteringPoint
	Com []ComponentsPoint
	Cor []CorenessPoint
	Wgt []WeightedPoint
}

// runAll runs all five metric observers in ONE engine pass and asserts
// the pass built exactly one CSR per grid point — the snapshot and
// edge-weight lanes must ride the shared build, never trigger their
// own.
func runAll(t *testing.T, s *linkstream.Stream, grid []int64, opt sweep.Options) engineResult {
	t.Helper()
	deg := NewDegreeObserver()
	clu := NewClusteringObserver()
	com := NewComponentsObserver()
	cor := NewCorenessObserver()
	wgt := NewWeightedObserver()
	sweep.ResetBuildStats()
	if err := sweep.Run(context.Background(), s, grid, opt, deg, clu, com, cor, wgt); err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	builds, _ := sweep.BuildStats()
	if builds != int64(len(grid)) {
		t.Fatalf("engine built %d CSRs for %d grid points; metric lanes must not add builds", builds, len(grid))
	}
	return engineResult{Deg: deg.Points(), Clu: clu.Points(), Com: com.Points(), Cor: cor.Points(), Wgt: wgt.Points()}
}

// references computes all five naive per-snapshot curves.
func references(t *testing.T, s *linkstream.Stream, grid []int64, directed bool) engineResult {
	t.Helper()
	deg, err := DegreeReference(s, grid, directed)
	if err != nil {
		t.Fatalf("DegreeReference: %v", err)
	}
	clu, err := ClusteringReference(s, grid, directed)
	if err != nil {
		t.Fatalf("ClusteringReference: %v", err)
	}
	com, err := ComponentsReference(s, grid, directed)
	if err != nil {
		t.Fatalf("ComponentsReference: %v", err)
	}
	cor, err := CorenessReference(s, grid, directed)
	if err != nil {
		t.Fatalf("CorenessReference: %v", err)
	}
	wgt, err := WeightedReference(s, grid, directed)
	if err != nil {
		t.Fatalf("WeightedReference: %v", err)
	}
	return engineResult{Deg: deg, Clu: clu, Com: com, Cor: cor, Wgt: wgt}
}

// closeTo is the documented float tolerance of the engine-vs-reference
// contract: integer-derived fields compare bit-exactly (they take the
// a == b branch), per-node float sums (entropies, clustering
// coefficients) within 1e-12 relative — the two sides add the same
// terms in different per-node orders.
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12*m
}

func checkClose(t *testing.T, metric, field string, delta int64, got, want float64) {
	t.Helper()
	if !closeTo(got, want) {
		t.Errorf("%s ∆=%d: %s = %v, reference %v", metric, delta, field, got, want)
	}
}

// compareToReference checks every engine point against its naive
// counterpart.
func compareToReference(t *testing.T, got, want engineResult) {
	t.Helper()
	for i, p := range got.Deg {
		w := want.Deg[i]
		checkClose(t, "degree", "mean_degree", p.Delta, p.MeanDegree, w.MeanDegree)
		checkClose(t, "degree", "max_degree", p.Delta, p.MaxDegree, w.MaxDegree)
		checkClose(t, "degree", "degree_entropy", p.Delta, p.DegreeEntropy, w.DegreeEntropy)
	}
	for i, p := range got.Clu {
		w := want.Clu[i]
		checkClose(t, "clustering", "transitivity", p.Delta, p.Transitivity, w.Transitivity)
		checkClose(t, "clustering", "mean_clustering", p.Delta, p.MeanClustering, w.MeanClustering)
	}
	for i, p := range got.Com {
		w := want.Com[i]
		checkClose(t, "components", "mean_components", p.Delta, p.MeanComponents, w.MeanComponents)
		checkClose(t, "components", "giant_fraction", p.Delta, p.GiantFraction, w.GiantFraction)
	}
	for i, p := range got.Cor {
		w := want.Cor[i]
		checkClose(t, "coreness", "max_coreness", p.Delta, p.MaxCoreness, w.MaxCoreness)
		checkClose(t, "coreness", "mean_coreness", p.Delta, p.MeanCoreness, w.MeanCoreness)
	}
	for i, p := range got.Wgt {
		w := want.Wgt[i]
		checkClose(t, "weighted", "mean_weight", p.Delta, p.MeanWeight, w.MeanWeight)
		checkClose(t, "weighted", "max_weight", p.Delta, p.MaxWeight, w.MaxWeight)
		checkClose(t, "weighted", "weight_entropy", p.Delta, p.WeightEntropy, w.WeightEntropy)
		if p.TotalContacts != w.TotalContacts {
			t.Errorf("weighted ∆=%d: total_contacts = %d, reference %d", p.Delta, p.TotalContacts, w.TotalContacts)
		}
	}
}

// TestObserversMatchReferences is the acceptance matrix: every metric
// vs its naive per-snapshot reference across 3 seeds × directed /
// undirected × worker counts × in-flight budgets, all five computed in
// one engine pass per knob setting, and the engine output bit-identical
// across all knob settings.
func TestObserversMatchReferences(t *testing.T) {
	grid := []int64{250, 700, 1600, 4000, 9000, 20000}
	knobs := []struct{ workers, maxInFlight int }{{1, 1}, {1, 0}, {3, 1}, {3, 0}}
	for _, seed := range []int64{101, 202, 303} {
		s, err := synth.TimeUniform(synth.TimeUniformConfig{Nodes: 12, LinksPerPair: 5, T: 20_000, Seed: seed})
		if err != nil {
			t.Fatalf("synth: %v", err)
		}
		for _, directed := range []bool{false, true} {
			ref := references(t, s, grid, directed)
			var base engineResult
			for ki, knob := range knobs {
				opt := sweep.Options{Directed: directed, Workers: knob.workers, MaxInFlight: knob.maxInFlight}
				got := runAll(t, s, grid, opt)
				if ki == 0 {
					base = got
					compareToReference(t, got, ref)
					// Every event falls in some window, so the
					// weighted total is the event count at every ∆.
					for _, p := range got.Wgt {
						if p.TotalContacts != int64(s.NumEvents()) {
							t.Errorf("seed %d directed=%v ∆=%d: total_contacts = %d, want event count %d",
								seed, directed, p.Delta, p.TotalContacts, s.NumEvents())
						}
					}
				} else if !reflect.DeepEqual(got, base) {
					t.Errorf("seed %d directed=%v: workers=%d max-inflight=%d output differs from workers=%d max-inflight=%d — curves must be bit-identical across engine knobs",
						seed, directed, knob.workers, knob.maxInFlight, knobs[0].workers, knobs[0].maxInFlight)
				}
			}
		}
	}
}

// TestSnapshotOnlySpec pins the engine's zero-task path: a spec whose
// observers want only Needs.Snapshots has no sweep, stats or weights
// product, so the freshly built CSR is finalized straight from the
// producer. The curve must match the reference all the same.
func TestSnapshotOnlySpec(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{Nodes: 10, LinksPerPair: 4, T: 9_000, Seed: 7})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	grid := []int64{300, 1100, 9000}
	for _, directed := range []bool{false, true} {
		deg := NewDegreeObserver()
		sweep.ResetBuildStats()
		if err := sweep.Run(context.Background(), s, grid, sweep.Options{Directed: directed, Workers: 2}, deg); err != nil {
			t.Fatalf("sweep.Run: %v", err)
		}
		if builds, _ := sweep.BuildStats(); builds != int64(len(grid)) {
			t.Fatalf("snapshot-only run built %d CSRs, want %d", builds, len(grid))
		}
		ref, err := DegreeReference(s, grid, directed)
		if err != nil {
			t.Fatalf("DegreeReference: %v", err)
		}
		for i, p := range deg.Points() {
			checkClose(t, "degree", "mean_degree", p.Delta, p.MeanDegree, ref[i].MeanDegree)
			checkClose(t, "degree", "max_degree", p.Delta, p.MaxDegree, ref[i].MaxDegree)
			checkClose(t, "degree", "degree_entropy", p.Delta, p.DegreeEntropy, ref[i].DegreeEntropy)
		}
	}
}

// TestCurveShape checks the Curve accessors: metric and series names,
// delta axis, stability range.
func TestCurveShape(t *testing.T) {
	s, err := synth.TimeUniform(synth.TimeUniformConfig{Nodes: 8, LinksPerPair: 3, T: 5_000, Seed: 11})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	grid := []int64{200, 900, 5000}
	for _, tc := range []struct {
		obs interface {
			Curve() Curve
		}
		metric string
		series []string
	}{
		{mustRun(t, s, grid, NewDegreeObserver()), "degree", []string{"mean_degree", "max_degree", "degree_entropy"}},
		{mustRun(t, s, grid, NewClusteringObserver()), "clustering", []string{"transitivity", "mean_clustering"}},
		{mustRun(t, s, grid, NewComponentsObserver()), "components", []string{"mean_components", "giant_fraction"}},
		{mustRun(t, s, grid, NewCorenessObserver()), "coreness", []string{"max_coreness", "mean_coreness"}},
		{mustRun(t, s, grid, NewWeightedObserver()), "weighted", []string{"mean_weight", "max_weight", "weight_entropy"}},
	} {
		c := tc.obs.Curve()
		if c.Metric != tc.metric {
			t.Errorf("Curve.Metric = %q, want %q", c.Metric, tc.metric)
		}
		if len(c.Deltas) != len(grid) {
			t.Errorf("%s: len(Deltas) = %d, want %d", tc.metric, len(c.Deltas), len(grid))
		}
		for i, d := range c.Deltas {
			if d != grid[i] {
				t.Errorf("%s: Deltas[%d] = %d, want %d", tc.metric, i, d, grid[i])
			}
		}
		if len(c.Series) != len(tc.series) {
			t.Errorf("%s: %d series, want %d", tc.metric, len(c.Series), len(tc.series))
		}
		for _, name := range tc.series {
			ser, ok := c.Get(name)
			if !ok {
				t.Errorf("%s: missing series %q", tc.metric, name)
				continue
			}
			if len(ser.Values) != len(grid) {
				t.Errorf("%s/%s: %d values, want %d", tc.metric, name, len(ser.Values), len(grid))
			}
			if ser.Stability < 0 || ser.Stability > 1 {
				t.Errorf("%s/%s: stability %v outside [0, 1]", tc.metric, name, ser.Stability)
			}
		}
		if _, ok := c.Get("no_such_series"); ok {
			t.Errorf("%s: Get of unknown series reported ok", tc.metric)
		}
	}
}

// mustRun runs one observer through the engine and returns it, typed
// for the Curve table above.
func mustRun[T sweep.Observer](t *testing.T, s *linkstream.Stream, grid []int64, obs T) T {
	t.Helper()
	if err := sweep.Run(context.Background(), s, grid, sweep.Options{}, obs); err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	return obs
}

// TestStability pins the stability score's anchor cases: empty input
// scores 0, a flat series is perfectly stable, a uniform ramp is near
// the unstable end, and a two-level step sits in between.
func TestStability(t *testing.T) {
	if got := Stability(nil); got != 0 {
		t.Errorf("Stability(nil) = %v, want 0", got)
	}
	flat := Stability([]float64{3, 3, 3, 3, 3, 3, 3, 3})
	if flat != 1 {
		t.Errorf("flat series stability = %v, want 1", flat)
	}
	ramp := Stability([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if ramp > 0.3 {
		t.Errorf("uniform ramp stability = %v, want near 0", ramp)
	}
	step := Stability([]float64{0, 0, 0, 0, 0, 5, 5, 5, 5, 5})
	if step <= ramp || step >= flat {
		t.Errorf("two-level step stability = %v, want between ramp (%v) and flat (%v)", step, ramp, flat)
	}
}
