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
	N        int  // number of nodes
	Directed bool // follow edge orientation if true
	Workers  int  // parallel destinations; <= 0 means GOMAXPROCS
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
// collapsed (by the CSR builder, see BuildCSR).
func StreamLayers(s *linkstream.Stream, directed bool) []Layer {
	return StreamCSR(s, directed).Layers()
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
