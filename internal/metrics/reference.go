package metrics

import (
	"math"
	"slices"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/snapshot"
)

// The *Reference functions are the naive per-snapshot implementations
// of every metric, retained per house style as the pin for the engine
// observers: aggregate the stream at each ∆ with series.Aggregate,
// materialise each window the obvious way (adjacency matrices, BFS,
// O(n²) peeling), average over all windows. They are O(grid × windows
// × n²) and exist to be slow, simple and obviously correct; the
// equivalence and brute-force suites compare the observers against
// them across seeds × orientations × workers × in-flight budgets.

// matrixOf builds the underlying undirected simple-graph adjacency
// matrix of one window's edge list (directed edges lose orientation;
// reciprocal pairs collapse).
func matrixOf(n int, edges []snapshot.Edge) [][]bool {
	mat := make([][]bool, n)
	for i := range mat {
		mat[i] = make([]bool, n)
	}
	for _, e := range edges {
		mat[e.U][e.V] = true
		mat[e.V][e.U] = true
	}
	return mat
}

// DegreeReference computes the degree-distribution curve the naive
// way. Degree counts incident edges — a directed snapshot's reciprocal
// pair is two edges, contributing one to each endpoint per edge.
func DegreeReference(s *linkstream.Stream, grid []int64, directed bool) ([]DegreePoint, error) {
	out := make([]DegreePoint, len(grid))
	for gi, delta := range grid {
		g, err := series.Aggregate(s, delta, directed)
		if err != nil {
			return nil, err
		}
		pt := DegreePoint{Delta: delta}
		if g.NumWindows > 0 && g.N > 0 {
			var sumMean, sumMax, sumEnt float64
			for _, w := range g.Windows {
				deg := make([]int, g.N)
				for _, e := range w.Edges {
					deg[e.U]++
					deg[e.V]++
				}
				maxDeg := 0
				for _, d := range deg {
					if d > maxDeg {
						maxDeg = d
					}
				}
				counts := make([]int, maxDeg+1)
				for _, d := range deg {
					counts[d]++
				}
				sumMean += float64(2*len(w.Edges)) / float64(g.N)
				sumMax += float64(maxDeg)
				sumEnt += entropyOfCounts(g.N, counts)
			}
			k := float64(g.NumWindows)
			pt.MeanDegree = sumMean / k
			pt.MaxDegree = sumMax / k
			pt.DegreeEntropy = sumEnt / k
		}
		out[gi] = pt
	}
	return out, nil
}

// entropyOfCounts is Shannon entropy (nats) over the class counts,
// classes in ascending order — the same accumulation order as
// degreeEntropy.
func entropyOfCounts(n int, counts []int) float64 {
	ent := 0.0
	for _, count := range counts {
		if count > 0 {
			p := float64(count) / float64(n)
			ent -= p * math.Log(p)
		}
	}
	return ent
}

// ClusteringReference computes the clustering curve by brute force:
// triangles by triple loop over the adjacency matrix, local
// coefficients by neighbour-pair counting.
func ClusteringReference(s *linkstream.Stream, grid []int64, directed bool) ([]ClusteringPoint, error) {
	out := make([]ClusteringPoint, len(grid))
	for gi, delta := range grid {
		g, err := series.Aggregate(s, delta, directed)
		if err != nil {
			return nil, err
		}
		pt := ClusteringPoint{Delta: delta}
		if g.NumWindows > 0 && g.N > 0 {
			var sumTrans, sumLocal float64
			for _, w := range g.Windows {
				mat := matrixOf(g.N, w.Edges)
				deg := make([]int64, g.N)
				for u := 0; u < g.N; u++ {
					for v := 0; v < g.N; v++ {
						if mat[u][v] {
							deg[u]++
						}
					}
				}
				var triangles, wedges int64
				for u := 0; u < g.N; u++ {
					wedges += deg[u] * (deg[u] - 1) / 2
					for v := u + 1; v < g.N; v++ {
						if !mat[u][v] {
							continue
						}
						for x := v + 1; x < g.N; x++ {
							if mat[u][x] && mat[v][x] {
								triangles++
							}
						}
					}
				}
				if wedges > 0 {
					sumTrans += 3 * float64(triangles) / float64(wedges)
				}
				var local float64
				for u := 0; u < g.N; u++ {
					if deg[u] < 2 {
						continue
					}
					var links int64
					for v := 0; v < g.N; v++ {
						if !mat[u][v] {
							continue
						}
						for x := v + 1; x < g.N; x++ {
							if mat[u][x] && mat[v][x] {
								links++
							}
						}
					}
					local += float64(2*links) / float64(deg[u]*(deg[u]-1))
				}
				sumLocal += local / float64(g.N)
			}
			k := float64(g.NumWindows)
			pt.Transitivity = sumTrans / k
			pt.MeanClustering = sumLocal / k
		}
		out[gi] = pt
	}
	return out, nil
}

// ComponentsReference computes the component curve with snapshot.Graph
// (BFS-checked union-find) per window.
func ComponentsReference(s *linkstream.Stream, grid []int64, directed bool) ([]ComponentsPoint, error) {
	out := make([]ComponentsPoint, len(grid))
	for gi, delta := range grid {
		g, err := series.Aggregate(s, delta, directed)
		if err != nil {
			return nil, err
		}
		pt := ComponentsPoint{Delta: delta}
		if g.NumWindows > 0 && g.N > 0 {
			var sumComps, sumGiant float64
			for i := range g.Windows {
				gr, err := g.Snapshot(i)
				if err != nil {
					return nil, err
				}
				// Components() counts isolated nodes as singletons;
				// subtract them to count only the components among
				// non-isolated nodes.
				_, k := gr.Components()
				iso := g.N - gr.NonIsolated()
				sumComps += float64(k - iso)
				sumGiant += float64(gr.LargestComponent()) / float64(g.N)
			}
			sumGiant += (float64(g.NumWindows) - float64(len(g.Windows))) / float64(g.N)
			k := float64(g.NumWindows)
			pt.MeanComponents = sumComps / k
			pt.GiantFraction = sumGiant / k
		}
		out[gi] = pt
	}
	return out, nil
}

// CorenessReference computes the k-core curve by the naive O(n²) peel:
// repeatedly remove a minimum-degree node (smallest id on ties); its
// degree at removal, maximised over the removals so far, is its core
// number.
func CorenessReference(s *linkstream.Stream, grid []int64, directed bool) ([]CorenessPoint, error) {
	out := make([]CorenessPoint, len(grid))
	for gi, delta := range grid {
		g, err := series.Aggregate(s, delta, directed)
		if err != nil {
			return nil, err
		}
		pt := CorenessPoint{Delta: delta}
		if g.NumWindows > 0 && g.N > 0 {
			var sumMax, sumMean float64
			for _, w := range g.Windows {
				maxCore, coreSum := naiveCoreness(g.N, matrixOf(g.N, w.Edges))
				sumMax += float64(maxCore)
				sumMean += float64(coreSum) / float64(g.N)
			}
			k := float64(g.NumWindows)
			pt.MaxCoreness = sumMax / k
			pt.MeanCoreness = sumMean / k
		}
		out[gi] = pt
	}
	return out, nil
}

// naiveCoreness peels the adjacency matrix: the running maximum of
// removal degrees when a node goes is its core number. Isolated nodes
// peel first at degree 0.
func naiveCoreness(n int, mat [][]bool) (maxCore int64, coreSum int64) {
	deg := make([]int64, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if mat[u][v] {
				deg[u]++
			}
		}
	}
	removed := make([]bool, n)
	running := int64(0)
	for step := 0; step < n; step++ {
		pick := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (pick < 0 || deg[u] < deg[pick]) {
				pick = u
			}
		}
		if deg[pick] > running {
			running = deg[pick]
		}
		coreSum += running
		if running > maxCore {
			maxCore = running
		}
		removed[pick] = true
		for v := 0; v < n; v++ {
			if mat[pick][v] && !removed[v] {
				deg[v]--
			}
		}
	}
	return maxCore, coreSum
}

// WeightedReference computes the weighted-aggregation curve by
// counting contacts per (window, canonical edge) in a map.
func WeightedReference(s *linkstream.Stream, grid []int64, directed bool) ([]WeightedPoint, error) {
	s.Sort()
	t0, _, ok := s.Span()
	out := make([]WeightedPoint, len(grid))
	for gi, delta := range grid {
		g, err := series.Aggregate(s, delta, directed)
		if err != nil {
			return nil, err
		}
		pt := WeightedPoint{Delta: delta}
		if ok && g.NumWindows > 0 {
			counts := make(map[int64]map[uint64]int64)
			for _, e := range s.Events() {
				u, v := e.U, e.V
				if !directed && u > v {
					u, v = v, u
				}
				k := (e.T - t0) / delta
				m := counts[k]
				if m == nil {
					m = make(map[uint64]int64)
					counts[k] = m
				}
				m[snapshot.PackEdge(u, v)]++
			}
			windows := make([]int64, 0, len(counts))
			for k := range counts {
				windows = append(windows, k)
			}
			slices.Sort(windows)
			var sumMean, sumMax, sumEnt float64
			for _, k := range windows {
				m := counts[k]
				keys := make([]uint64, 0, len(m))
				var winTotal, maxw int64
				for key, c := range m {
					keys = append(keys, key)
					winTotal += c
					if c > maxw {
						maxw = c
					}
				}
				pt.TotalContacts += winTotal
				sumMean += float64(winTotal) / float64(len(m))
				sumMax += float64(maxw)
				if len(m) >= 2 {
					slices.Sort(keys)
					ent := 0.0
					for _, key := range keys {
						p := float64(m[key]) / float64(winTotal)
						ent -= p * math.Log(p)
					}
					sumEnt += ent / math.Log(float64(len(m)))
				}
			}
			kk := float64(g.NumWindows)
			pt.MeanWeight = sumMean / kk
			pt.MaxWeight = sumMax / kk
			pt.WeightEntropy = sumEnt / kk
		}
		out[gi] = pt
	}
	return out, nil
}
