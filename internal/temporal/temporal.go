// Package temporal implements the temporal-path machinery of the paper
// (Definitions 2-7): temporal paths, minimal trips, shortest transitions,
// occupancy rates and the three distance notions dtime, dhops, dabstime.
//
// The central algorithm is the backward dynamic-programming sweep the
// paper describes in Section 5: for a fixed destination v, snapshots are
// scanned from the last to the first while maintaining, for every node u,
// the earliest arrival at v over temporal paths departing at or after the
// current time, together with the minimum number of hops among the paths
// realising that arrival. Every strict improvement of the earliest
// arrival at time k is exactly one minimal trip (u, v, k, arr). The
// sweep touches only non-empty snapshots, giving the paper's O(nM) time
// with O(n) working memory per destination, where M is the total number
// of edges over all snapshots.
//
// The same engine runs on a graph series (layer keys are window indices,
// durations count windows, dur = arr-dep+1) and on a raw link stream
// (layer keys are timestamps, dur = arr-dep).
package temporal

import (
	"math"
	"runtime"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/snapshot"
)

// Unreachable is the earliest-arrival value of nodes that cannot reach
// the destination.
const Unreachable = math.MaxInt64

// Layer is one time layer of a layered dynamic graph: a deduplicated
// edge set at time key Key. Layers must be sorted by strictly
// increasing Key.
type Layer struct {
	Key   int64
	Edges []snapshot.Edge
}

// Trip is a minimal trip (Definition 5): there is a temporal path from U
// to V departing at Dep and arriving at Arr, and no trip between U and V
// fits in a strictly smaller interval. Hops is the minimum number of
// hops among temporal paths departing exactly at Dep and arriving
// exactly at Arr (which is the paper's occupancy numerator).
type Trip struct {
	U, V     int32
	Dep, Arr int64
	Hops     int32
}

// Occupancy returns hops(P)/time(P) for the trip in graph-series
// semantics, where time(P) = Arr - Dep + 1 windows (Definition 7).
func (t Trip) Occupancy() float64 {
	return float64(t.Hops) / float64(t.Arr-t.Dep+1)
}

// Config carries the engine parameters shared by all entry points.
type Config struct {
	N         int  // number of nodes
	Directed  bool // follow edge orientation if true
	Workers   int  // parallel destinations; <= 0 means GOMAXPROCS
	LaneWidth int  // blocked-sweep lane width: 0 (auto), 4 or 8
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SeriesLayers converts an aggregated series into engine layers (window
// indices as keys). The series' Directed flag must match the Config used
// with the layers.
func SeriesLayers(g *series.Series) []Layer {
	layers := make([]Layer, len(g.Windows))
	for i, w := range g.Windows {
		layers[i] = Layer{Key: w.K, Edges: w.Edges}
	}
	return layers
}

// StreamLayers groups the events of a (sorted) link stream by timestamp
// into engine layers with raw timestamps as keys. If directed is false,
// edges are canonicalised; duplicated events inside a timestamp are
// collapsed (by sort-and-compact, via the CSR builder).
func StreamLayers(s *linkstream.Stream, directed bool) []Layer {
	return StreamCSR(s, directed).Layers()
}

// destState is the per-worker scratch memory of the slice-based
// backward sweep. This implementation predates the CSR engine (csr.go)
// and is retained as the reference the CSR sweep is equivalence-tested
// against; production entry points all route through the CSR arena.
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

// distAcc accumulates the distance sums of Figure 2 over the segments of
// the piecewise-constant function k -> (arr(u,v,k), dhops(u,v,k)).
type distAcc struct {
	sumTime float64
	sumHops float64
	count   int64
	durPlus int64 // 1 for graph series, 0 for link streams
	kMin    int64 // smallest start time considered (usually 0)
}

// addSegment accounts start times k in [kFrom, kTo] all having earliest
// arrival a and min hops h.
func (d *distAcc) addSegment(a, kFrom, kTo int64, h int32) {
	if kFrom < d.kMin {
		kFrom = d.kMin
	}
	if kFrom > kTo {
		return
	}
	cnt := kTo - kFrom + 1
	d.count += cnt
	// sum over k of (a - k + durPlus)
	d.sumTime += float64(cnt)*float64(a+d.durPlus) - float64(kFrom+kTo)*float64(cnt)/2
	d.sumHops += float64(cnt) * float64(h)
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

// ForEachTrip enumerates all minimal trips sequentially in deterministic
// order: destinations in increasing id, then strictly decreasing
// departure per destination sweep.
func ForEachTrip(cfg Config, layers []Layer, visit func(Trip)) {
	c := FromLayers(layers)
	st := getSweepState(cfg.N, ResolveLaneWidth(cfg.LaneWidth))
	for d := int32(0); int(d) < cfg.N; d++ {
		st.run(c, d, cfg.Directed, func(u int32, dep, arr int64, hops int32) {
			visit(Trip{U: u, V: d, Dep: dep, Arr: arr, Hops: hops})
		}, nil)
	}
	putSweepState(st)
}

// CollectTrips returns every minimal trip of the layered graph. The
// sweep is parallel over destinations; the order of the result is
// unspecified.
func CollectTrips(cfg Config, layers []Layer) []Trip {
	return CollectTripsCSR(cfg, FromLayers(layers))
}

// Occupancies returns the occupancy rates (Definition 7) of all minimal
// trips of an aggregated graph series given as layers. The sweep is
// parallel over destinations; the order of the result is unspecified.
func Occupancies(cfg Config, layers []Layer) []float64 {
	return OccupanciesCSR(cfg, FromLayers(layers))
}

// DistanceStats aggregates the distance properties of Figure 2 over all
// ordered couples (u, v) and all start times with a finite distance.
type DistanceStats struct {
	MeanTime float64 // mean dtime (window counts for series; raw time for streams)
	MeanHops float64 // mean dhops
	Count    int64   // number of finite (u, v, t) triples
}

// Distances computes the mean distance in time and in hops of the
// layered graph, for start times ranging over [kMin, +inf) (start times
// after the last layer are unreachable and therefore not counted).
// durPlus is 1 for graph series (dtime = arr-dep+1, Definition 4) and 0
// for raw link streams. The caller obtains the mean distance in absolute
// time as Delta * MeanTime.
func Distances(cfg Config, layers []Layer, kMin int64, durPlus int64) DistanceStats {
	return DistancesCSR(cfg, FromLayers(layers), kMin, durPlus)
}

// ShortestTransitions returns the minimal trips with exactly two hops
// (Definition 6) of the layered graph. These are the paper's key units
// of propagation used by the Section 8 validation.
func ShortestTransitions(cfg Config, layers []Layer) []Trip {
	all := CollectTrips(cfg, layers)
	out := all[:0]
	for _, t := range all {
		if t.Hops == 2 {
			out = append(out, t)
		}
	}
	return out
}
