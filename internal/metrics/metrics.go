// Package metrics is the per-∆ snapshot-metric observer library: a set
// of sweep.Observer implementations that score structural properties of
// the aggregated series G∆ — degree distribution, clustering,
// connected-component structure, coreness, and the weighted
// aggregation — one value per candidate period, all fanned off the
// engine's single shared CSR build per period (Needs.Snapshots /
// Needs.EdgeWeights), never a pass of their own.
//
// Every metric follows one convention: a per-window (per-snapshot)
// quantity is computed for each window of the ∆-partition and averaged
// over all NumWindows windows, empty windows included. An empty window
// contributes 0 to every quantity except the giant-component fraction,
// where it contributes 1/N (an empty snapshot's largest component is a
// single isolated node when N > 0 — the same convention as
// series.Stats). Directed streams keep edge orientation for the degree
// and weighted metrics (a reciprocal pair is two edges) and are
// evaluated on the underlying undirected simple graph for clustering,
// components and coreness, where orientation has no standard meaning.
//
// Each observer's curve (value vs ∆) carries a stability score per
// series — the plateau detector time-scale selection reads — built
// from the same Monge–Kantorovich proximity the paper's Section 7
// selectors rank distributions with; see Stability.
//
// Results are deterministic: each period is scored by exactly one
// engine task, windows accumulate in window order, and integer-derived
// quantities are exact — so every curve is bit-identical across worker
// counts, lane widths and in-flight budgets. Against the naive
// per-snapshot references (reference.go) the integer-derived fields
// match bit-exactly and the float-summed ones (entropies, clustering)
// to 1e-12 relative tolerance, since the two sides may sum per-node
// terms in different orders.
package metrics

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// DegreePoint is the degree-distribution summary at one period: each
// per-window quantity averaged over all windows of the ∆-partition.
// Degree counts incident edges — out plus in for directed snapshots —
// so MeanDegree is 2M_k/N either way.
type DegreePoint struct {
	Delta int64 `json:"delta"`
	// MeanDegree is the average over windows of the snapshot's mean
	// degree over all N nodes.
	MeanDegree float64 `json:"mean_degree"`
	// MaxDegree is the average over windows of the snapshot's maximum
	// degree.
	MaxDegree float64 `json:"max_degree"`
	// DegreeEntropy is the average over windows of the Shannon entropy
	// (nats) of the snapshot's degree distribution over all N nodes,
	// zero-degree nodes included.
	DegreeEntropy float64 `json:"degree_entropy"`
}

// ClusteringPoint is the clustering summary at one period, computed on
// the underlying undirected simple graph of each snapshot.
type ClusteringPoint struct {
	Delta int64 `json:"delta"`
	// Transitivity is the average over windows of the snapshot's global
	// transitivity 3·triangles/wedges (0 when the snapshot has no
	// wedge).
	Transitivity float64 `json:"transitivity"`
	// MeanClustering is the average over windows of the snapshot's mean
	// local clustering coefficient over all N nodes (nodes of degree
	// < 2 contribute 0).
	MeanClustering float64 `json:"mean_clustering"`
}

// ComponentsPoint is the connected-component summary at one period
// (weak connectivity for directed snapshots).
type ComponentsPoint struct {
	Delta int64 `json:"delta"`
	// MeanComponents is the average over windows of the number of
	// components among the snapshot's non-isolated nodes (an empty
	// snapshot has 0).
	MeanComponents float64 `json:"mean_components"`
	// GiantFraction is the average over windows of |largest
	// component|/N, with an empty snapshot counting 1/N (its largest
	// component is one isolated node), per the series.Stats convention.
	GiantFraction float64 `json:"giant_fraction"`
}

// CorenessPoint is the k-core summary at one period, computed on the
// underlying undirected simple graph of each snapshot.
type CorenessPoint struct {
	Delta int64 `json:"delta"`
	// MaxCoreness is the average over windows of the snapshot's
	// degeneracy (its maximum core number).
	MaxCoreness float64 `json:"max_coreness"`
	// MeanCoreness is the average over windows of the snapshot's mean
	// coreness over all N nodes (untouched nodes have coreness 0).
	MeanCoreness float64 `json:"mean_coreness"`
}

// WeightedPoint is the weighted-aggregation summary at one period: the
// AggregateNet view where each snapshot edge carries the number of
// stream events its window collapsed onto it.
type WeightedPoint struct {
	Delta int64 `json:"delta"`
	// MeanWeight is the average over windows of the snapshot's mean
	// edge weight (total contacts / distinct edges; 0 for an empty
	// snapshot).
	MeanWeight float64 `json:"mean_weight"`
	// MaxWeight is the average over windows of the snapshot's maximum
	// edge weight.
	MaxWeight float64 `json:"max_weight"`
	// WeightEntropy is the average over windows of the snapshot's
	// weight entropy −Σ (w/W)·ln(w/W), normalised by ln(edges) onto
	// [0, 1] (0 when the snapshot has fewer than two edges): 1 means
	// contacts spread evenly over the window's edges, 0 means they
	// concentrate on one.
	WeightEntropy float64 `json:"weight_entropy"`
	// TotalContacts is the sum of all edge weights over all windows —
	// exactly the number of events in the period of study, whatever ∆
	// is (the weighted aggregation loses no contact).
	TotalContacts int64 `json:"total_contacts"`
}

// Series is one named value-vs-∆ series of a metric curve, with its
// stability score.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	// Stability is the plateau score of the series (see Stability):
	// 1 means flat across the grid, 0 means the values spread evenly
	// over their own range.
	Stability float64 `json:"stability"`
}

// Curve is the generic value-vs-∆ form of a snapshot metric: the
// metric's name (a root-package ParseMetrics name), the candidate
// periods, and one Series per summary quantity, each value aligned
// with Deltas.
type Curve struct {
	Metric string   `json:"metric"`
	Deltas []int64  `json:"deltas"`
	Series []Series `json:"series"`
}

// Get returns the named series of the curve.
func (c Curve) Get(name string) (Series, bool) {
	for _, s := range c.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Stability scores how strongly a value-vs-∆ series plateaus, on
// [0, 1]. The series is min-max normalised onto [0, 1] and scored with
// the complement of the Monge–Kantorovich proximity the Section 7
// selectors use: a constant series (everything on the plateau) scores
// 1, a series whose values spread uniformly across their own range (no
// scale is special) scores ~0, and a two-level step — half the grid on
// each plateau — sits near 1/2. Like the selectors, it is a ranking
// device for comparing candidate scales, not a significance test.
func Stability(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if hi == lo {
		return 1
	}
	norm := make([]float64, len(values))
	for i, v := range values {
		norm[i] = (v - lo) / (hi - lo)
	}
	s, err := dist.NewSample(norm)
	if err != nil {
		return 0
	}
	return 1 - s.MKProximity()
}

func series1(name string, values []float64) Series {
	return Series{Name: name, Values: values, Stability: Stability(values)}
}

// DegreeObserver collects the degree-distribution curve inside an
// engine run, one more lane off the shared per-period CSR build.
type DegreeObserver struct {
	n      int
	points []DegreePoint
}

// NewDegreeObserver returns a degree-distribution observer.
func NewDegreeObserver() *DegreeObserver { return &DegreeObserver{} }

// Needs declares the snapshot lane.
func (o *DegreeObserver) Needs() sweep.Needs { return sweep.Needs{Snapshots: true} }

// Begin sizes the curve to the grid.
func (o *DegreeObserver) Begin(v *sweep.StreamView) error {
	o.n = v.N
	o.points = make([]DegreePoint, len(v.Grid))
	return nil
}

// ObservePeriod scores one period straight off its layer arena.
func (o *DegreeObserver) ObservePeriod(p *sweep.Period) error {
	pt := DegreePoint{Delta: p.Delta}
	n := o.n
	if p.NumWindows > 0 && n > 0 {
		deg := make([]int32, n)
		stamp := newStamps(n)
		touched := make([]int32, 0, 64)
		var sumMean, sumMax, sumEnt float64
		c := p.Graph
		for li := 0; li < c.NumLayers(); li++ {
			lo, hi := c.Off[li], c.Off[li+1]
			touched = touched[:0]
			epoch := int32(li)
			for t := lo; t < hi; t++ {
				for _, x := range [2]int32{c.Ends[2*t], c.Ends[2*t+1]} {
					if stamp[x] != epoch {
						stamp[x] = epoch
						deg[x] = 0
						touched = append(touched, x)
					}
					deg[x]++
				}
			}
			m := hi - lo
			sumMean += 2 * float64(m) / float64(n)
			degs := make([]int32, len(touched))
			for i, x := range touched {
				degs[i] = deg[x]
			}
			slices.Sort(degs)
			if len(degs) > 0 {
				sumMax += float64(degs[len(degs)-1])
			}
			sumEnt += degreeEntropy(n, degs)
		}
		k := float64(p.NumWindows)
		pt.MeanDegree = sumMean / k
		pt.MaxDegree = sumMax / k
		pt.DegreeEntropy = sumEnt / k
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the curve, one DegreePoint per grid entry.
func (o *DegreeObserver) Points() []DegreePoint { return o.points }

// Curve returns the generic curve form with per-series stability.
func (o *DegreeObserver) Curve() Curve {
	deltas := make([]int64, len(o.points))
	mean := make([]float64, len(o.points))
	maxd := make([]float64, len(o.points))
	ent := make([]float64, len(o.points))
	for i, pt := range o.points {
		deltas[i], mean[i], maxd[i], ent[i] = pt.Delta, pt.MeanDegree, pt.MaxDegree, pt.DegreeEntropy
	}
	return Curve{Metric: "degree", Deltas: deltas, Series: []Series{
		series1("mean_degree", mean),
		series1("max_degree", maxd),
		series1("degree_entropy", ent),
	}}
}

// degreeEntropy is the Shannon entropy (nats) of a snapshot's degree
// distribution over all n nodes: degs holds the sorted degrees of the
// non-isolated nodes, the remaining n−len(degs) nodes have degree 0.
// Classes accumulate in ascending degree order on both the engine and
// the reference side, keeping the two within float tolerance of a
// single rounding.
func degreeEntropy(n int, degs []int32) float64 {
	ent := 0.0
	class := func(count int) {
		if count > 0 {
			p := float64(count) / float64(n)
			ent -= p * math.Log(p)
		}
	}
	class(n - len(degs)) // the degree-0 class
	for i := 0; i < len(degs); {
		j := i
		for j < len(degs) && degs[j] == degs[i] {
			j++
		}
		class(j - i)
		i = j
	}
	return ent
}

// ClusteringObserver collects the clustering/transitivity curve inside
// an engine run.
type ClusteringObserver struct {
	n        int
	directed bool
	points   []ClusteringPoint
}

// NewClusteringObserver returns a clustering observer.
func NewClusteringObserver() *ClusteringObserver { return &ClusteringObserver{} }

// Needs declares the snapshot lane.
func (o *ClusteringObserver) Needs() sweep.Needs { return sweep.Needs{Snapshots: true} }

// Begin sizes the curve to the grid.
func (o *ClusteringObserver) Begin(v *sweep.StreamView) error {
	o.n, o.directed = v.N, v.Directed
	o.points = make([]ClusteringPoint, len(v.Grid))
	return nil
}

// ObservePeriod scores one period on the underlying undirected simple
// graph of each snapshot.
func (o *ClusteringObserver) ObservePeriod(p *sweep.Period) error {
	pt := ClusteringPoint{Delta: p.Delta}
	n := o.n
	if p.NumWindows > 0 && n > 0 {
		var sumTrans, sumLocal float64
		adj := newAdjScratch(n)
		c := p.Graph
		for li := 0; li < c.NumLayers(); li++ {
			adj.build(c, li, o.directed)
			trans, local := adj.clustering()
			sumTrans += trans
			sumLocal += local
		}
		k := float64(p.NumWindows)
		pt.Transitivity = sumTrans / k
		pt.MeanClustering = sumLocal / k
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the curve, one ClusteringPoint per grid entry.
func (o *ClusteringObserver) Points() []ClusteringPoint { return o.points }

// Curve returns the generic curve form with per-series stability.
func (o *ClusteringObserver) Curve() Curve {
	deltas := make([]int64, len(o.points))
	trans := make([]float64, len(o.points))
	local := make([]float64, len(o.points))
	for i, pt := range o.points {
		deltas[i], trans[i], local[i] = pt.Delta, pt.Transitivity, pt.MeanClustering
	}
	return Curve{Metric: "clustering", Deltas: deltas, Series: []Series{
		series1("transitivity", trans),
		series1("mean_clustering", local),
	}}
}

// ComponentsObserver collects the component-structure curve inside an
// engine run.
type ComponentsObserver struct {
	n      int
	points []ComponentsPoint
}

// NewComponentsObserver returns a component-structure observer.
func NewComponentsObserver() *ComponentsObserver { return &ComponentsObserver{} }

// Needs declares the snapshot lane.
func (o *ComponentsObserver) Needs() sweep.Needs { return sweep.Needs{Snapshots: true} }

// Begin sizes the curve to the grid.
func (o *ComponentsObserver) Begin(v *sweep.StreamView) error {
	o.n = v.N
	o.points = make([]ComponentsPoint, len(v.Grid))
	return nil
}

// ObservePeriod scores one period with a stamped union-find over each
// layer's edges — the windowStats technique, counting components.
func (o *ComponentsObserver) ObservePeriod(p *sweep.Period) error {
	pt := ComponentsPoint{Delta: p.Delta}
	n := o.n
	if p.NumWindows > 0 && n > 0 {
		parent := make([]int32, n)
		size := make([]int32, n)
		stamp := newStamps(n)
		find := func(x int32) int32 {
			for parent[x] != x {
				parent[x] = parent[parent[x]] // path halving
				x = parent[x]
			}
			return x
		}
		var sumComps, sumGiant float64
		c := p.Graph
		for li := 0; li < c.NumLayers(); li++ {
			lo, hi := c.Off[li], c.Off[li+1]
			epoch := int32(li)
			nonIso, unions := 0, 0
			largest := int32(1)
			touch := func(x int32) int32 {
				if stamp[x] != epoch {
					stamp[x] = epoch
					parent[x] = x
					size[x] = 1
					nonIso++
				}
				return find(x)
			}
			for t := lo; t < hi; t++ {
				ru, rv := touch(c.Ends[2*t]), touch(c.Ends[2*t+1])
				if ru == rv {
					continue
				}
				unions++
				if size[ru] < size[rv] {
					ru, rv = rv, ru
				}
				parent[rv] = ru
				size[ru] += size[rv]
				if size[ru] > largest {
					largest = size[ru]
				}
			}
			sumComps += float64(nonIso - unions)
			sumGiant += float64(largest) / float64(n)
		}
		// Empty windows: no component among non-isolated nodes, and a
		// largest component of one isolated node (the series.Stats
		// convention).
		sumGiant += (float64(p.NumWindows) - float64(c.NumLayers())) / float64(n)
		k := float64(p.NumWindows)
		pt.MeanComponents = sumComps / k
		pt.GiantFraction = sumGiant / k
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the curve, one ComponentsPoint per grid entry.
func (o *ComponentsObserver) Points() []ComponentsPoint { return o.points }

// Curve returns the generic curve form with per-series stability.
func (o *ComponentsObserver) Curve() Curve {
	deltas := make([]int64, len(o.points))
	comps := make([]float64, len(o.points))
	giant := make([]float64, len(o.points))
	for i, pt := range o.points {
		deltas[i], comps[i], giant[i] = pt.Delta, pt.MeanComponents, pt.GiantFraction
	}
	return Curve{Metric: "components", Deltas: deltas, Series: []Series{
		series1("mean_components", comps),
		series1("giant_fraction", giant),
	}}
}

// CorenessObserver collects the k-core curve inside an engine run.
type CorenessObserver struct {
	n        int
	directed bool
	points   []CorenessPoint
}

// NewCorenessObserver returns a coreness observer.
func NewCorenessObserver() *CorenessObserver { return &CorenessObserver{} }

// Needs declares the snapshot lane.
func (o *CorenessObserver) Needs() sweep.Needs { return sweep.Needs{Snapshots: true} }

// Begin sizes the curve to the grid.
func (o *CorenessObserver) Begin(v *sweep.StreamView) error {
	o.n, o.directed = v.N, v.Directed
	o.points = make([]CorenessPoint, len(v.Grid))
	return nil
}

// ObservePeriod scores one period: each snapshot's core decomposition
// by bucketed peeling (Batagelj–Zaversnik) on the underlying
// undirected simple graph. Coreness sums are integer arithmetic, so
// the curve is exact.
func (o *CorenessObserver) ObservePeriod(p *sweep.Period) error {
	pt := CorenessPoint{Delta: p.Delta}
	n := o.n
	if p.NumWindows > 0 && n > 0 {
		var sumMax, sumMean float64
		adj := newAdjScratch(n)
		c := p.Graph
		for li := 0; li < c.NumLayers(); li++ {
			adj.build(c, li, o.directed)
			maxCore, coreSum := adj.coreness()
			sumMax += float64(maxCore)
			sumMean += float64(coreSum) / float64(n)
		}
		k := float64(p.NumWindows)
		pt.MaxCoreness = sumMax / k
		pt.MeanCoreness = sumMean / k
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the curve, one CorenessPoint per grid entry.
func (o *CorenessObserver) Points() []CorenessPoint { return o.points }

// Curve returns the generic curve form with per-series stability.
func (o *CorenessObserver) Curve() Curve {
	deltas := make([]int64, len(o.points))
	maxc := make([]float64, len(o.points))
	meanc := make([]float64, len(o.points))
	for i, pt := range o.points {
		deltas[i], maxc[i], meanc[i] = pt.Delta, pt.MaxCoreness, pt.MeanCoreness
	}
	return Curve{Metric: "coreness", Deltas: deltas, Series: []Series{
		series1("max_coreness", maxc),
		series1("mean_coreness", meanc),
	}}
}

// WeightedObserver collects the weighted-aggregation curve inside an
// engine run: the Needs.EdgeWeights lane hands it every snapshot
// edge's contact count, aligned with the shared layer arena.
type WeightedObserver struct {
	points []WeightedPoint
}

// NewWeightedObserver returns a weighted-aggregation observer.
func NewWeightedObserver() *WeightedObserver { return &WeightedObserver{} }

// Needs declares the snapshot and edge-weight lanes.
func (o *WeightedObserver) Needs() sweep.Needs {
	return sweep.Needs{Snapshots: true, EdgeWeights: true}
}

// Begin sizes the curve to the grid.
func (o *WeightedObserver) Begin(v *sweep.StreamView) error {
	o.points = make([]WeightedPoint, len(v.Grid))
	return nil
}

// ObservePeriod scores one period off its weight lane.
func (o *WeightedObserver) ObservePeriod(p *sweep.Period) error {
	pt := WeightedPoint{Delta: p.Delta}
	if p.NumWindows > 0 {
		var sumMean, sumMax, sumEnt float64
		c, w := p.Graph, p.EdgeWeights
		for li := 0; li < c.NumLayers(); li++ {
			lw := w[c.Off[li]:c.Off[li+1]]
			var winTotal int64
			maxw := int32(0)
			for _, x := range lw {
				winTotal += int64(x)
				if x > maxw {
					maxw = x
				}
			}
			pt.TotalContacts += winTotal
			sumMean += float64(winTotal) / float64(len(lw))
			sumMax += float64(maxw)
			sumEnt += weightEntropy(lw, winTotal)
		}
		k := float64(p.NumWindows)
		pt.MeanWeight = sumMean / k
		pt.MaxWeight = sumMax / k
		pt.WeightEntropy = sumEnt / k
	}
	o.points[p.Index] = pt
	return nil
}

// Points returns the curve, one WeightedPoint per grid entry.
func (o *WeightedObserver) Points() []WeightedPoint { return o.points }

// Curve returns the generic curve form with per-series stability.
func (o *WeightedObserver) Curve() Curve {
	deltas := make([]int64, len(o.points))
	mean := make([]float64, len(o.points))
	maxw := make([]float64, len(o.points))
	ent := make([]float64, len(o.points))
	for i, pt := range o.points {
		deltas[i], mean[i], maxw[i], ent[i] = pt.Delta, pt.MeanWeight, pt.MaxWeight, pt.WeightEntropy
	}
	return Curve{Metric: "weighted", Deltas: deltas, Series: []Series{
		series1("mean_weight", mean),
		series1("max_weight", maxw),
		series1("weight_entropy", ent),
	}}
}

// weightEntropy is the normalised entropy of one window's edge-weight
// distribution: −Σ (w/W)·ln(w/W) / ln(E), 0 when the window has fewer
// than two edges. Terms accumulate in edge order (ascending packed
// (U, V) key — the arena's layer order), matching the reference's
// sorted-key iteration.
func weightEntropy(w []int32, total int64) float64 {
	if len(w) < 2 {
		return 0
	}
	ent := 0.0
	for _, x := range w {
		p := float64(x) / float64(total)
		ent -= p * math.Log(p)
	}
	return ent / math.Log(float64(len(w)))
}

// newStamps returns an n-slot epoch array at rest (-1 everywhere).
func newStamps(n int) []int32 {
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	return stamp
}

// adjScratch builds, per window, the underlying undirected simple
// graph's adjacency over the window's touched nodes: O(window edges)
// per window after an O(n) allocation per period, the windowStats
// costing model. Directed layers are canonicalised and deduplicated
// (a reciprocal pair is one undirected edge); undirected layers are
// already canonical, deduplicated and sorted by the engine's build.
type adjScratch struct {
	n         int
	deg       []int32 // per-node simple-graph degree (touched nodes)
	start     []int32 // per-node adjacency start (touched nodes)
	end       []int32 // per-node adjacency end — deg may be peeled, end never moves
	fill      []int32 // per-node cursor: build fill, then peel position
	stamp     []int32
	epoch     int32
	touched   []int32
	keys      []uint64 // canonicalised packed edges of the window
	adj       []int32  // concatenated neighbour lists of touched nodes
	tri       []int32  // per-node doubled triangle counts
	mark      []int64  // triangle-counting marks
	markEpoch int64
	order     []int32 // peel order scratch
	bin       []int32 // peel bucket scratch
}

func newAdjScratch(n int) *adjScratch {
	return &adjScratch{
		n:     n,
		deg:   make([]int32, n),
		start: make([]int32, n),
		end:   make([]int32, n),
		fill:  make([]int32, n),
		stamp: newStamps(n),
		tri:   make([]int32, n),
		mark:  make([]int64, n),
		epoch: -1,
	}
}

// build materialises layer li of the arena as adjacency lists. After
// it returns: touched lists the window's non-isolated nodes, deg[x]
// their simple-graph degrees, and neighbors(x) their neighbour lists.
func (a *adjScratch) build(c *temporal.CSR, li int, directed bool) {
	lo, hi := c.Off[li], c.Off[li+1]
	a.epoch++
	a.touched = a.touched[:0]
	keys := a.keys[:0]
	for t := lo; t < hi; t++ {
		u, v := c.Ends[2*t], c.Ends[2*t+1]
		if directed && u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	if directed {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	a.keys = keys
	touch := func(x int32) {
		if a.stamp[x] != a.epoch {
			a.stamp[x] = a.epoch
			a.deg[x] = 0
			a.touched = append(a.touched, x)
		}
		a.deg[x]++
	}
	for _, key := range keys {
		touch(int32(key >> 32))
		touch(int32(uint32(key)))
	}
	if cap(a.adj) < 2*len(keys) {
		a.adj = make([]int32, 2*len(keys))
	}
	a.adj = a.adj[:2*len(keys)]
	cursor := int32(0)
	for _, x := range a.touched {
		a.start[x] = cursor
		a.fill[x] = cursor
		cursor += a.deg[x]
		a.end[x] = cursor
	}
	for _, key := range keys {
		u, v := int32(key>>32), int32(uint32(key))
		a.adj[a.fill[u]] = v
		a.fill[u]++
		a.adj[a.fill[v]] = u
		a.fill[v]++
	}
}

// neighbors returns touched node x's neighbour list (bounds fixed at
// build time, unaffected by the peel's degree updates).
func (a *adjScratch) neighbors(x int32) []int32 {
	return a.adj[a.start[x]:a.end[x]]
}

// clustering returns the window's transitivity 3·triangles/wedges and
// its mean local clustering over all n nodes. Triangles are counted
// once per edge by marked neighbour intersection: edge (u, v)'s
// common-neighbour count is the number of triangles through that edge,
// so summed over edges it is 3·triangles, and landing it on both
// endpoints leaves each node's count doubled — its local coefficient
// is then tri/(d(d−1)).
func (a *adjScratch) clustering() (transitivity, meanLocal float64) {
	for _, x := range a.touched {
		a.tri[x] = 0
	}
	var closed, wedges int64
	for _, u := range a.touched {
		a.markEpoch++
		for _, w := range a.neighbors(u) {
			a.mark[w] = a.markEpoch
		}
		du := int64(a.deg[u])
		wedges += du * (du - 1) / 2
		for _, v := range a.neighbors(u) {
			if v < u {
				continue // each undirected edge once, from its smaller end
			}
			c := int32(0)
			for _, w := range a.neighbors(v) {
				if a.mark[w] == a.markEpoch {
					c++
				}
			}
			closed += int64(c)
			a.tri[u] += c
			a.tri[v] += c
		}
	}
	if wedges > 0 {
		transitivity = float64(closed) / float64(wedges) // closed is already 3·triangles
	}
	var sumLocal float64
	for _, u := range a.touched {
		d := int64(a.deg[u])
		if d >= 2 {
			sumLocal += float64(a.tri[u]) / float64(d*(d-1))
		}
	}
	meanLocal = sumLocal / float64(a.n)
	return transitivity, meanLocal
}

// coreness peels the window's touched subgraph in degree buckets
// (Batagelj–Zaversnik) and returns the degeneracy and the sum of all
// core numbers: processing nodes in ascending current-degree order,
// a node's degree at its peel is its core number; only neighbours of
// higher current degree are decremented (and swapped to the front of
// their bucket). Destroys deg and fill — build refreshes both for the
// next window.
func (a *adjScratch) coreness() (maxCore int32, coreSum int64) {
	nt := len(a.touched)
	if nt == 0 {
		return 0, 0
	}
	maxDeg := int32(0)
	for _, x := range a.touched {
		if a.deg[x] > maxDeg {
			maxDeg = a.deg[x]
		}
	}
	if cap(a.bin) < int(maxDeg)+1 {
		a.bin = make([]int32, maxDeg+1)
	}
	bin := a.bin[:maxDeg+1]
	clear(bin)
	for _, x := range a.touched {
		bin[a.deg[x]]++
	}
	pos := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = pos
		pos += cnt
	}
	if cap(a.order) < nt {
		a.order = make([]int32, nt)
	}
	order := a.order[:nt]
	vpos := a.fill // node → index in order (the fill cursors are spent)
	for _, x := range a.touched {
		order[bin[a.deg[x]]] = x
		vpos[x] = bin[a.deg[x]]
		bin[a.deg[x]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	for i := 0; i < nt; i++ {
		v := order[i]
		dv := a.deg[v]
		if dv > maxCore {
			maxCore = dv
		}
		coreSum += int64(dv) // core(v) = its degree at peel time
		for _, u := range a.neighbors(v) {
			if a.deg[u] > dv {
				du, pu := a.deg[u], vpos[u]
				pw := bin[du]
				w := order[pw]
				if u != w {
					order[pu], order[pw] = w, u
					vpos[u], vpos[w] = pw, pu
				}
				bin[du]++
				a.deg[u] = du - 1
			}
		}
	}
	return maxCore, coreSum
}
