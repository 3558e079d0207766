package temporal

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/snapshot"
)

// --- CSR builder ---

func TestBuildCSREmpty(t *testing.T) {
	var scratch CSRScratch
	c := BuildCSR(nil, 0, 10, &scratch)
	if c.NumLayers() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty CSR: layers=%d edges=%d", c.NumLayers(), c.NumEdges())
	}
	if len(c.Off) != 1 || c.Off[0] != 0 {
		t.Fatalf("empty CSR offsets = %v", c.Off)
	}
	if got := FromLayers(nil); got.NumLayers() != 0 || len(got.Off) != 1 {
		t.Fatalf("FromLayers(nil) = %+v", got)
	}
}

func TestBuildCSRDuplicatesAndWindows(t *testing.T) {
	// Two windows of delta=10 from t0=100: events at 100..109 -> k=0,
	// 110..119 -> k=1. Duplicates inside a window collapse, across
	// windows do not.
	events := []linkstream.Event{
		{U: 1, V: 2, T: 100},
		{U: 1, V: 2, T: 105}, // duplicate of (1,2) in window 0
		{U: 2, V: 3, T: 107},
		{U: 1, V: 2, T: 110}, // same edge, next window
		{U: 2, V: 3, T: 111},
		{U: 2, V: 3, T: 111}, // exact duplicate
	}
	var scratch CSRScratch
	c := BuildCSR(events, 100, 10, &scratch)
	if c.NumLayers() != 2 {
		t.Fatalf("layers = %d, want 2", c.NumLayers())
	}
	if c.Keys[0] != 0 || c.Keys[1] != 1 {
		t.Fatalf("keys = %v", c.Keys)
	}
	if c.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4 after dedup", c.NumEdges())
	}
	layers := c.Layers()
	want0 := []snapshot.Edge{{U: 1, V: 2}, {U: 2, V: 3}}
	if len(layers[0].Edges) != 2 || layers[0].Edges[0] != want0[0] || layers[0].Edges[1] != want0[1] {
		t.Fatalf("window 0 edges = %v", layers[0].Edges)
	}
	if len(layers[1].Edges) != 2 {
		t.Fatalf("window 1 edges = %v", layers[1].Edges)
	}
}

func TestStreamCSRDirectedVsUndirected(t *testing.T) {
	s := linkstream.New()
	s.EnsureNodes(3)
	// (1,0) and (0,1) at the same timestamp: distinct when directed,
	// one canonical edge when undirected.
	if err := s.AddID(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddID(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	dir := StreamCSR(s, true)
	if dir.NumLayers() != 1 || dir.NumEdges() != 2 {
		t.Fatalf("directed CSR: layers=%d edges=%d", dir.NumLayers(), dir.NumEdges())
	}
	und := StreamCSR(s, false)
	if und.NumEdges() != 1 {
		t.Fatalf("undirected CSR should canonicalise to 1 edge, got %d", und.NumEdges())
	}
	if und.Ends[0] != 0 || und.Ends[1] != 1 {
		t.Fatalf("canonical edge = (%d,%d), want (0,1)", und.Ends[0], und.Ends[1])
	}
	if und.Keys[0] != 5 {
		t.Fatalf("stream layer key = %d, want raw timestamp 5", und.Keys[0])
	}
}

func TestFromLayersRoundTrip(t *testing.T) {
	layers := []Layer{
		{Key: 3, Edges: []snapshot.Edge{{U: 0, V: 1}}},
		{Key: 7, Edges: []snapshot.Edge{{U: 1, V: 2}, {U: 0, V: 2}}},
	}
	c := FromLayers(layers)
	back := c.Layers()
	if len(back) != len(layers) {
		t.Fatalf("round trip layers = %d", len(back))
	}
	for i := range layers {
		if back[i].Key != layers[i].Key || len(back[i].Edges) != len(layers[i].Edges) {
			t.Fatalf("layer %d mismatch: %+v vs %+v", i, back[i], layers[i])
		}
		for j := range layers[i].Edges {
			if back[i].Edges[j] != layers[i].Edges[j] {
				t.Fatalf("layer %d edge %d mismatch", i, j)
			}
		}
	}
}

// --- Equivalence of the CSR sweep and the slice-based reference ---

// randomStream builds a seeded synthetic stream with duplicates and
// both edge orientations.
func randomStream(t *testing.T, n, events int, T int64, seed int64) *linkstream.Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := linkstream.New()
	s.EnsureNodes(n)
	for i := 0; i < events; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if err := s.AddID(u, v, rng.Int63n(T)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// referenceTrips runs the retained slice-based sweep (destState.run).
func referenceTrips(cfg Config, layers []Layer) []Trip {
	var out []Trip
	st := newDestState(cfg.N)
	for d := int32(0); int(d) < cfg.N; d++ {
		st.run(d, layers, cfg.Directed, func(u int32, dep, arr int64, hops int32) {
			out = append(out, Trip{U: u, V: d, Dep: dep, Arr: arr, Hops: hops})
		}, nil)
	}
	return out
}

// referenceDistances runs the retained slice-based distance sweep.
func referenceDistances(cfg Config, layers []Layer, kMin, durPlus int64) DistanceStats {
	var total distAcc
	st := newDestState(cfg.N)
	for d := int32(0); int(d) < cfg.N; d++ {
		acc := distAcc{durPlus: durPlus, kMin: kMin}
		st.run(d, layers, cfg.Directed, nil, &acc)
		total.sumTime += acc.sumTime
		total.sumHops += acc.sumHops
		total.count += acc.count
	}
	if total.count == 0 {
		return DistanceStats{}
	}
	return DistanceStats{
		MeanTime: total.sumTime / float64(total.count),
		MeanHops: total.sumHops / float64(total.count),
		Count:    total.count,
	}
}

// equivalenceWorkloads yields the seeded workloads the CSR engine is
// checked against: different densities, time spans and orientations.
func equivalenceWorkloads(t *testing.T) []struct {
	name     string
	layers   []Layer
	n        int
	directed bool
} {
	t.Helper()
	var out []struct {
		name     string
		layers   []Layer
		n        int
		directed bool
	}
	for _, w := range []struct {
		name            string
		n, events       int
		T, delta        int64
		seed            int64
		directed        bool
		streamSemantics bool
	}{
		{name: "sparse-undirected", n: 12, events: 150, T: 400, delta: 20, seed: 1},
		{name: "dense-undirected", n: 8, events: 600, T: 200, delta: 10, seed: 2},
		{name: "directed", n: 10, events: 300, T: 300, delta: 15, seed: 3, directed: true},
		{name: "stream-undirected", n: 9, events: 200, T: 250, seed: 4, streamSemantics: true},
		{name: "coarse-two-windows", n: 10, events: 250, T: 500, delta: 250, seed: 5},
	} {
		s := randomStream(t, w.n, w.events, w.T, w.seed)
		var layers []Layer
		if w.streamSemantics {
			layers = StreamLayers(s, w.directed)
		} else {
			g, err := series.Aggregate(s, w.delta, w.directed)
			if err != nil {
				t.Fatal(err)
			}
			layers = SeriesLayers(g)
		}
		out = append(out, struct {
			name     string
			layers   []Layer
			n        int
			directed bool
		}{w.name, layers, w.n, w.directed})
	}
	return out
}

func TestCSRSweepMatchesReferenceTrips(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
		want := referenceTrips(cfg, w.layers)
		got := CollectTripsCSR(cfg, FromLayers(w.layers))
		sortTrips(want)
		sortTrips(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d trips, reference has %d", w.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: trip %d = %+v, reference %+v", w.name, i, got[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: degenerate workload with no trips", w.name)
		}
	}
}

func TestCSRSweepMatchesReferenceOccupancies(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
		ref := referenceTrips(cfg, w.layers)
		want := make([]float64, 0, len(ref))
		for _, tr := range ref {
			want = append(want, tr.Occupancy())
		}
		got := OccupanciesCSR(cfg, FromLayers(w.layers))
		if len(got) != len(want) {
			t.Fatalf("%s: %d occupancies, reference has %d", w.name, len(got), len(want))
		}
		sortFloats(want)
		sortFloats(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: occupancy %d = %v, reference %v", w.name, i, got[i], want[i])
			}
		}
	}
}

// FuzzOccupanciesExact checks Definition 7's arithmetic on arbitrary
// small graphs: decode an event list (at most 12 nodes, one byte of
// time per event) with its orientation and ∆ from the input, build the
// CSR, and require the engine's occupancies at both lane widths to be
// bit-identical, as a multiset, to Trip.Occupancy() over the reference
// sweep's trips. The first seed is a 3-hop trip over 5 windows:
// 3/5 rounds to 0.6, but 3·(1/5) rounds to 0.6000000000000001.
func FuzzOccupanciesExact(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 2, 2, 3, 4})
	f.Add([]byte{1, 3, 4, 7, 10, 7, 2, 30, 2, 9, 31, 9, 4, 90, 0, 11, 200})
	f.Add([]byte{0, 15, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		directed := data[0]&1 == 1
		delta := 1 + int64(data[1]%16)
		data = data[2:]
		var events []linkstream.Event
		for len(data) >= 3 {
			u, v := int32(data[0]%12), int32(data[1]%12)
			tt := int64(data[2])
			data = data[3:]
			if u != v {
				events = append(events, linkstream.Event{T: tt, U: u, V: v})
			}
		}
		if len(events) == 0 {
			return
		}
		linkstream.SortEvents(events)
		if !directed {
			events = linkstream.Canonical(events)
		}
		var scratch CSRScratch
		c := BuildCSR(events, events[0].T, delta, &scratch)
		ref := referenceTrips(Config{N: 12, Directed: directed}, c.Layers())
		want := make([]float64, len(ref))
		for i, tr := range ref {
			want[i] = tr.Occupancy()
		}
		sortFloats(want)
		for _, width := range []int{4, 8} {
			got := OccupanciesCSR(Config{N: 12, Directed: directed, Workers: 2, LaneWidth: width}, c)
			sortFloats(got)
			if len(got) != len(want) {
				t.Fatalf("width=%d: %d occupancies, reference has %d", width, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("width=%d: occupancy %d = %v, Trip.Occupancy() %v", width, i, got[i], want[i])
				}
			}
		}
	})
}

func TestCSRSweepMatchesReferenceDistances(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		for _, durPlus := range []int64{0, 1} {
			cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
			want := referenceDistances(cfg, w.layers, 0, durPlus)
			got := DistancesCSR(cfg, FromLayers(w.layers), 0, durPlus)
			if got.Count != want.Count {
				t.Fatalf("%s durPlus=%d: count %d, reference %d", w.name, durPlus, got.Count, want.Count)
			}
			if math.Abs(got.MeanTime-want.MeanTime) > 1e-9 || math.Abs(got.MeanHops-want.MeanHops) > 1e-9 {
				t.Fatalf("%s durPlus=%d: distances %+v, reference %+v", w.name, durPlus, got, want)
			}
		}
	}
}

func TestCSRReachablePairsMatchesReference(t *testing.T) {
	for _, w := range equivalenceWorkloads(t) {
		cfg := Config{N: w.n, Directed: w.directed, Workers: 2}
		// Reference: a pair is reachable iff it has at least one trip.
		type pair struct{ u, v int32 }
		seen := map[pair]bool{}
		for _, tr := range referenceTrips(cfg, w.layers) {
			seen[pair{tr.U, tr.V}] = true
		}
		got := CountReachablePairsCSR(cfg, FromLayers(w.layers))
		if got != int64(len(seen)) {
			t.Fatalf("%s: reachable pairs %d, reference %d", w.name, got, len(seen))
		}
	}
}

func sortFloats(v []float64) { sort.Float64s(v) }
