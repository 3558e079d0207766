package temporal

import (
	"errors"
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

// TestCheckBuildSize pins the build's int32 event-index bound: a buffer
// past math.MaxInt32 events is refused, not wrapped.
func TestCheckBuildSize(t *testing.T) {
	if err := CheckBuildSize(math.MaxInt32); err != nil {
		t.Fatalf("CheckBuildSize(MaxInt32) = %v, want nil", err)
	}
	over := int64(math.MaxInt32) + 1
	if int64(int(over)) != over {
		t.Skip("int cannot hold more than math.MaxInt32 events")
	}
	if err := CheckBuildSize(int(over)); !errors.Is(err, ErrBuildTooLarge) {
		t.Fatalf("CheckBuildSize(MaxInt32+1) = %v, want ErrBuildTooLarge", err)
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

// spreadMultipliers spread the dense node ids 0..15 of FuzzBuildCSR
// over one to four bytes each, so that from 1 up to all 8 bytes of the
// packed (U, V) keys vary. Multiplying by a positive constant without
// overflow is monotonic, so the spread keys sort like the dense ones.
var spreadMultipliers = [...]int32{1, 0x100, 0x10000, 0x1000000, 0x1001, 0x101, 0x10101, 0x1010101, 0x8080808}

// spreadEvents returns a copy of events with every node id multiplied
// by mult.
func spreadEvents(events []linkstream.Event, mult int32) []linkstream.Event {
	out := make([]linkstream.Event, len(events))
	for i, e := range events {
		out[i] = linkstream.Event{U: e.U * mult, V: e.V * mult, T: e.T}
	}
	return out
}

// buildOracle is the CSR the build must produce from the spread copy of
// dense: series.Aggregate over a stream of the dense events (taken as
// given when directed, canonicalised otherwise), flattened by SeriesCSR
// and spread by mult.
func buildOracle(t *testing.T, dense []linkstream.Event, delta int64, directed bool, mult int32) *CSR {
	t.Helper()
	s := linkstream.New()
	s.EnsureNodes(16)
	for _, e := range dense {
		if err := s.AddID(e.U, e.V, e.T); err != nil {
			t.Fatal(err)
		}
	}
	g, err := series.Aggregate(s, delta, directed)
	if err != nil {
		t.Fatal(err)
	}
	c := SeriesCSR(g)
	for i := range c.Ends {
		c.Ends[i] *= mult
	}
	return c
}

// FuzzBuildCSR holds the sort-free build to an exact oracle: Keys, Off
// and Ends must equal series.Aggregate's windows and Weights the map
// count, for directed and canonicalised buffers whose node ids vary in
// 1 to 8 key bytes. Three deltas run through one scratch, which then
// serves two buffers its cached edge order does not sort: the same
// buffer changed in place (one event's endpoints swapped, or a node
// relabelled) and a different buffer of the same length.
func FuzzBuildCSR(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{1, 2, 0, 3, 4, 0, 1, 2, 5, 2, 1, 9, 7, 3, 9, 0, 5, 40})
	f.Add(byte(1), byte(7), []byte{0, 1, 3, 1, 0, 3, 2, 5, 3, 5, 2, 4, 0, 14, 8, 14, 0, 8, 3, 4, 200})
	f.Add(byte(6), byte(8), []byte{9, 1, 0, 1, 9, 0, 1, 9, 0, 4, 13, 2, 13, 4, 2, 6, 7, 2, 11, 12, 255})
	f.Add(byte(255), byte(5), []byte{14, 13, 1, 12, 11, 1, 10, 9, 2, 8, 7, 3, 6, 5, 5, 4, 3, 8, 2, 1, 13, 0, 14, 21})
	// The relabel leaves the stale order's keys ascending but visits
	// one key's layers out of order: only the layer half of the
	// descent check catches it.
	f.Add(byte(0x1c), byte(','), []byte("012017100100Z00010"))
	f.Fuzz(func(t *testing.T, mode, spread byte, data []byte) {
		directed := mode&1 == 0
		mult := spreadMultipliers[int(spread)%len(spreadMultipliers)]
		var dense []linkstream.Event
		for len(data) >= 3 {
			u, v := int32(data[0]%15), int32(data[1]%15)
			tt := int64(data[2])
			data = data[3:]
			if u != v {
				dense = append(dense, linkstream.Event{T: tt, U: u, V: v})
			}
		}
		if len(dense) == 0 {
			return
		}
		linkstream.SortEvents(dense)
		if !directed {
			dense = linkstream.Canonical(dense)
		}
		check := func(label string, events, dense []linkstream.Event, delta int64, directed bool, scratch *CSRScratch) {
			t.Helper()
			t0 := events[0].T
			c := BuildCSR(events, t0, delta, scratch)
			csrEqual(t, c, buildOracle(t, dense, delta, directed, mult), label)
			checkWeights(t, events, t0, delta, c, c.Weights)
		}

		var scratch CSRScratch
		events := spreadEvents(dense, mult)
		deltas := []int64{1 + int64(mode>>2), 7, 300}
		for _, delta := range deltas {
			check("fresh buffer", events, dense, delta, directed, &scratch)
		}

		// Change the buffer in place: swap one event's endpoints, or
		// relabel one node to the unused id 15. Either may leave a
		// canonical buffer non-canonical, so the oracle takes the
		// buffer as given from here on.
		j := int(mode>>1) % len(dense)
		if mode&2 == 0 {
			dense[j].U, dense[j].V = dense[j].V, dense[j].U
		} else {
			a := dense[j].U
			for i := range dense {
				if dense[i].U == a {
					dense[i].U = 15
				}
				if dense[i].V == a {
					dense[i].V = 15
				}
			}
		}
		for i, e := range spreadEvents(dense, mult) {
			events[i] = e
		}
		for _, delta := range deltas {
			check("buffer changed in place", events, dense, delta, true, &scratch)
		}

		// A different buffer of the same length: every node id
		// mirrored, which reverses the key order.
		other := make([]linkstream.Event, len(dense))
		for i, e := range dense {
			other[i] = linkstream.Event{U: 15 - e.U, V: 15 - e.V, T: e.T}
		}
		check("different buffer", spreadEvents(other, mult), other, deltas[0], true, &scratch)
	})
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

// destState is the per-worker scratch memory of the slice-based
// backward sweep over []Layer. This implementation predates the CSR
// engine (csr.go) and lives here as the independent reference the CSR
// sweep is equivalence-tested against.
type destState struct {
	arr     []int64 // earliest arrival at dest for departures >= current key
	hop     []int32 // min hops among paths realising arr
	segKey  []int64 // key at which (arr, hop) became active
	candArr []int64 // per-layer candidate arrival
	candHop []int32
	mark    []int64 // epoch stamps for candArr/candHop
	touched []int32
	epoch   int64
}

func newDestState(n int) *destState {
	return &destState{
		arr:     make([]int64, n),
		hop:     make([]int32, n),
		segKey:  make([]int64, n),
		candArr: make([]int64, n),
		candHop: make([]int32, n),
		mark:    make([]int64, n),
		touched: make([]int32, 0, 64),
	}
}

// run performs one backward sweep for destination dest. visit, if non
// nil, receives every minimal trip (u, dest, dep, arr, hops) in order of
// strictly decreasing dep per source. acc, if non nil, accumulates the
// distance sums for all start times from acc.kMin on.
func (st *destState) run(dest int32, layers []Layer, directed bool, visit func(u int32, dep, arr int64, hops int32), acc *distAcc) {
	n := len(st.arr)
	for i := 0; i < n; i++ {
		st.arr[i] = Unreachable
		st.hop[i] = 0
		st.segKey[i] = 0
		st.mark[i] = 0
	}
	st.epoch = 0

	relax := func(x, via int32, key int64) {
		if x == dest {
			return
		}
		var ca int64
		var ch int32
		if via == dest {
			ca, ch = key, 1
		} else if a := st.arr[via]; a != Unreachable {
			ca, ch = a, st.hop[via]+1
		} else {
			return
		}
		// Discard candidates that cannot improve on the standing value.
		if ca > st.arr[x] || (ca == st.arr[x] && ch >= st.hop[x]) {
			return
		}
		if st.mark[x] != st.epoch {
			st.mark[x] = st.epoch
			st.candArr[x] = ca
			st.candHop[x] = ch
			st.touched = append(st.touched, x)
			return
		}
		if ca < st.candArr[x] || (ca == st.candArr[x] && ch < st.candHop[x]) {
			st.candArr[x] = ca
			st.candHop[x] = ch
		}
	}

	for li := len(layers) - 1; li >= 0; li-- {
		layer := layers[li]
		key := layer.Key
		st.epoch++
		st.touched = st.touched[:0]
		for _, e := range layer.Edges {
			// A directed link (u, v) lets u move to v; the backward state
			// of v (arrival departing >= key+1) therefore relaxes u.
			relax(e.U, e.V, key)
			if !directed {
				relax(e.V, e.U, key)
			}
		}
		for _, x := range st.touched {
			ca, ch := st.candArr[x], st.candHop[x]
			switch {
			case ca < st.arr[x]:
				if acc != nil && st.arr[x] != Unreachable {
					acc.addSegment(st.arr[x], key+1, st.segKey[x], st.hop[x])
				}
				st.arr[x] = ca
				st.hop[x] = ch
				st.segKey[x] = key
				if visit != nil {
					visit(x, key, ca, ch)
				}
			case ca == st.arr[x] && ch < st.hop[x]:
				// Same earliest arrival reachable with fewer hops when
				// departing earlier: not a minimal trip (the interval
				// strictly contains an existing one) but the hop count
				// must be refreshed for upstream relaxations and for
				// dhops segment tracking.
				if acc != nil {
					acc.addSegment(st.arr[x], key+1, st.segKey[x], st.hop[x])
				}
				st.hop[x] = ch
				st.segKey[x] = key
			}
		}
	}

	if acc != nil {
		for u := int32(0); int(u) < n; u++ {
			if u == dest || st.arr[u] == Unreachable {
				continue
			}
			acc.addSegment(st.arr[u], acc.kMin, st.segKey[u], st.hop[u])
		}
	}
}

// referenceTrips runs the slice-based reference sweep (destState.run).
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
// CSR, and require the engine's occupancies to be bit-identical, as a
// multiset, to Trip.Occupancy() over the reference sweep's trips. The
// first seed is a 3-hop trip over 5 windows: 3/5 rounds to 0.6, but
// 3·(1/5) rounds to 0.6000000000000001.
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
		got := OccupanciesCSR(Config{N: 12, Directed: directed, Workers: 2}, c)
		sortFloats(got)
		if len(got) != len(want) {
			t.Fatalf("%d occupancies, reference has %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("occupancy %d = %v, Trip.Occupancy() %v", i, got[i], want[i])
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
