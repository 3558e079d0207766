// Package snapshot implements the static-graph substrate: the graphs that
// an aggregated series is made of. Graphs are stored in a compact
// CSR-style adjacency so that the temporal-path engine can iterate
// neighbourhoods without allocation.
//
// The package also provides the classical graph statistics the paper's
// Figure 2 tracks across aggregation scales: density, non-isolated vertex
// count and largest connected component size.
package snapshot

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected (or directed, depending on the analysis) pair of
// node ids.
type Edge struct {
	U, V int32
}

// Canon returns the edge with endpoints ordered U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// PackEdge packs an edge into one uint64 key ordered like (U, V): the
// key series aggregation sorts and compacts per window, and the
// temporal engine's CSR builder radix-sorts once per event buffer.
// Both order a window's edges by it.
func PackEdge(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// UnpackEdge is the inverse of PackEdge.
func UnpackEdge(key uint64) Edge { return Edge{U: int32(key >> 32), V: int32(uint32(key))} }

// SortCompactEdgeKeys sorts packed edge keys and removes duplicates in
// place, returning the compacted prefix.
func SortCompactEdgeKeys(keys []uint64) []uint64 {
	slices.Sort(keys)
	w := 0
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		keys[w] = k
		w++
	}
	return keys[:w]
}

// Graph is a static graph on nodes 0..N-1 in CSR form. Build one with
// NewGraph. For undirected graphs every edge appears in both adjacency
// lists; for directed graphs only in the source's list.
type Graph struct {
	n        int
	offsets  []int32
	adj      []int32
	directed bool
	edges    int
}

// NewGraph builds a graph on n nodes from the given edges. Duplicate
// edges are collapsed; self loops are rejected. If directed is false,
// edges (u,v) and (v,u) are identified.
func NewGraph(n int, edges []Edge, directed bool) (*Graph, error) {
	dedup := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("snapshot: self loop on node %d", e.U)
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("snapshot: edge (%d,%d) out of range for %d nodes", e.U, e.V, n)
		}
		if !directed {
			e = e.Canon()
		}
		dedup = append(dedup, e)
	}
	sort.Slice(dedup, func(i, j int) bool {
		if dedup[i].U != dedup[j].U {
			return dedup[i].U < dedup[j].U
		}
		return dedup[i].V < dedup[j].V
	})
	w := 0
	for i, e := range dedup {
		if i > 0 && e == dedup[i-1] {
			continue
		}
		dedup[w] = e
		w++
	}
	dedup = dedup[:w]

	g := &Graph{n: n, directed: directed, edges: len(dedup)}
	deg := make([]int32, n+1)
	for _, e := range dedup {
		deg[e.U+1]++
		if !directed {
			deg[e.V+1]++
		}
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.offsets = deg
	g.adj = make([]int32, g.offsets[n])
	fill := make([]int32, n)
	for _, e := range dedup {
		g.adj[g.offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		if !directed {
			g.adj[g.offsets[e.V]+fill[e.V]] = e.U
			fill[e.V]++
		}
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (deduplicated) edges.
func (g *Graph) M() int { return g.edges }

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// Neighbors returns the adjacency list of node u (out-neighbours for a
// directed graph). The slice aliases internal storage; do not modify.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// Degree returns the (out-)degree of node u.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// HasEdge reports whether the edge (u,v) is present, by binary search in
// u's sorted adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Density returns 2M / (N(N-1)) for undirected graphs and M / (N(N-1))
// for directed ones; 0 for graphs with fewer than two nodes.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	pairs := float64(g.n) * float64(g.n-1)
	if g.directed {
		return float64(g.edges) / pairs
	}
	return 2 * float64(g.edges) / pairs
}

// NonIsolated returns the number of nodes with at least one incident edge
// (in either direction for directed graphs).
func (g *Graph) NonIsolated() int {
	seen := make([]bool, g.n)
	count := 0
	mark := func(u int32) {
		if !seen[u] {
			seen[u] = true
			count++
		}
	}
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			mark(u)
			mark(v)
		}
	}
	return count
}
