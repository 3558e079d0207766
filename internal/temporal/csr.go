package temporal

// This file implements the flat CSR layer arena the engine runs on: one
// contiguous []int32 endpoint array plus per-layer offsets, built once
// per aggregation period, so the inner relax loop of the backward sweep
// walks cache-linear memory instead of []Layer -> []snapshot.Edge
// pointer chains. The slice-based sweep over []Layer lives in
// csr_test.go as the reference implementation for equivalence tests;
// every public entry point routes through the CSR engine.

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/linkstream"
	"repro/internal/series"
	"repro/internal/snapshot"
)

// CSR is a layered dynamic graph in compressed sparse row form. Layer
// li covers edge indices Off[li]..Off[li+1]; edge e has endpoints
// Ends[2e] and Ends[2e+1]. Keys holds the strictly increasing time key
// of each layer (window indices for a series, raw timestamps for a
// stream). Edge sets are deduplicated per layer, ascending by packed
// (U, V) key within the layer; for undirected analyses endpoints are
// canonicalised (U < V) at build time. Weights, set by the builds from
// events (BuildCSR, BuildCSRArena, StreamCSR) and nil otherwise, holds
// the contact count of every edge: edge e aggregates Weights[e] events
// of its window, and a layer's weights sum to its window's event count.
type CSR struct {
	Keys    []int64
	Off     []int // len(Keys)+1
	Ends    []int32
	Weights []int32

	// arena links a pooled CSR back to its backing-array set; nil for
	// plain-built CSRs. reused records whether that set came off a
	// shelf. See BuildCSRArena/RecycleCSR (arena.go).
	arena  *csrArena
	class  arenaClass
	reused bool
}

// ArenaBacked reports whether the CSR's backing arrays belong to the
// size-classed arena pool and are still attached (BuildCSRArena built
// it and RecycleCSR has not yet reclaimed it).
func (c *CSR) ArenaBacked() bool { return c.arena != nil }

// ArenaReused reports whether the CSR's arena was reused from a shelf
// rather than freshly allocated; always false for plain-built CSRs.
func (c *CSR) ArenaReused() bool { return c.reused }

// NumLayers returns the number of (non-empty) layers.
func (c *CSR) NumLayers() int { return len(c.Keys) }

// NumEdges returns the total number of edges over all layers.
func (c *CSR) NumEdges() int { return len(c.Ends) / 2 }

// FromLayers flattens slice-based layers into a CSR arena. Layers must
// be sorted by strictly increasing Key with deduplicated edge sets (the
// invariant SeriesLayers and StreamLayers already guarantee).
func FromLayers(layers []Layer) *CSR {
	m := 0
	for _, l := range layers {
		m += len(l.Edges)
	}
	c := &CSR{
		Keys: make([]int64, len(layers)),
		Off:  make([]int, len(layers)+1),
		Ends: make([]int32, 0, 2*m),
	}
	for i, l := range layers {
		c.Keys[i] = l.Key
		c.Off[i] = len(c.Ends) / 2
		for _, e := range l.Edges {
			c.Ends = append(c.Ends, e.U, e.V)
		}
	}
	c.Off[len(layers)] = len(c.Ends) / 2
	return c
}

// Layers materialises the CSR back into slice-based layers (testing and
// interop; the engine itself never needs this).
func (c *CSR) Layers() []Layer {
	out := make([]Layer, len(c.Keys))
	for i := range c.Keys {
		lo, hi := c.Off[i], c.Off[i+1]
		edges := make([]snapshot.Edge, 0, hi-lo)
		for e := lo; e < hi; e++ {
			edges = append(edges, snapshot.Edge{U: c.Ends[2*e], V: c.Ends[2*e+1]})
		}
		out[i] = Layer{Key: c.Keys[i], Edges: edges}
	}
	return out
}

// SeriesCSR builds the CSR arena of an aggregated series directly,
// without materialising []Layer.
func SeriesCSR(g *series.Series) *CSR {
	c := &CSR{
		Keys: make([]int64, len(g.Windows)),
		Off:  make([]int, len(g.Windows)+1),
		Ends: make([]int32, 0, 2*g.TotalEdges),
	}
	for i, w := range g.Windows {
		c.Keys[i] = w.K
		c.Off[i] = len(c.Ends) / 2
		for _, e := range w.Edges {
			c.Ends = append(c.Ends, e.U, e.V)
		}
	}
	c.Off[len(g.Windows)] = len(c.Ends) / 2
	return c
}

// CSRScratch is the reusable build scratch of BuildCSR. It holds one
// edge-major order of the last event buffer it built from — the event
// indices by ascending packed (U, V) key — plus each event's layer and
// each layer's write cursor under the current delta, each sized for the
// largest buffer seen (a layer per event at most): three int32s, 12
// bytes, per event. The order is computed once per buffer and
// re-checked on every build (see buildCSRInto), so a scratch may be
// handed any buffer at any time. A single scratch serialises builds;
// use one per goroutine.
type CSRScratch struct {
	perm  []int32 // event indices by ascending (packed key, index)
	layer []int32 // per event: its layer index; the sort's ping-pong buffer
	cur   []int32 // per layer: the scatter's next write slot
}

// ErrBuildTooLarge reports an event buffer longer than the build's
// int32 event indices can address.
var ErrBuildTooLarge = errors.New("temporal: event buffer exceeds math.MaxInt32 events")

// CheckBuildSize returns ErrBuildTooLarge when a buffer of n events is
// too long for BuildCSR. Callers that can return an error call it
// before their first build; BuildCSR itself can only panic.
func CheckBuildSize(n int) error {
	if int64(n) > math.MaxInt32 {
		return ErrBuildTooLarge
	}
	return nil
}

// StreamCSR groups the events of the stream by timestamp into a CSR
// with raw timestamps as keys, canonicalising endpoints when directed
// is false. The stream is sorted as a side effect.
func StreamCSR(s *linkstream.Stream, directed bool) *CSR {
	s.Sort()
	events := s.Events()
	if !directed {
		events = linkstream.Canonical(events)
	}
	var scratch CSRScratch
	return BuildCSR(events, 0, 1, &scratch)
}

// BuildCSR bucketises pre-sorted events into windows of length delta
// starting at t0 (layer key = (T-t0)/delta), deduplicates every window
// and counts each distinct edge's events into Weights, in O(M) time per
// delta plus one O(M) radix sort per event buffer (see buildCSRInto).
// Events must be sorted by time and already canonicalised for
// undirected analyses (linkstream.Canonical); with delta == 1 and
// t0 == 0 the keys are the raw timestamps, which is the link-stream
// layering. scratch is reused across calls: builds of several deltas
// over one buffer share its edge order. A buffer of more than
// math.MaxInt32 events panics with ErrBuildTooLarge.
func BuildCSR(events []linkstream.Event, t0, delta int64, scratch *CSRScratch) *CSR {
	c := &CSR{}
	if len(events) == 0 {
		c.Off = []int{0}
		return c
	}
	c.Ends = make([]int32, 0, 2*len(events))
	c.Weights = make([]int32, 0, len(events))
	buildCSRInto(c, events, t0, delta, scratch)
	return c
}

// buildCSRInto runs the build of BuildCSR into c's (possibly
// arena-backed) zero-length Keys/Off/Ends/Weights slices, which must
// have room for 2*len(events) endpoints and len(events) weights. events
// must be non-empty. No window is sorted:
//
//  1. scratch.perm orders the buffer edge-major — event indices by
//     ascending packed (U, V) key, ties by index — computed by
//     sortEdges once per buffer, not once per delta;
//  2. layerPass gives each event its layer (windows are contiguous in
//     time order) and each layer its slot range, the layer's event
//     range;
//  3. scatter walks the order once and appends each event's edge to
//     its layer, so every layer receives its edges by ascending key;
//     an edge equal to the one its layer received last is counted,
//     not written;
//  4. compact closes the gaps the duplicates left.
//
// The order is trusted only while it holds: scatter checks that (key,
// layer) never descends along it — which is exactly what makes the
// appends sorted and the duplicates adjacent — and on a descent the
// order is recomputed and the build redone. A stale order from another
// buffer (or from this buffer before an in-place change) therefore
// costs a re-sort, never a wrong graph.
func buildCSRInto(c *CSR, events []linkstream.Event, t0, delta int64, scratch *CSRScratch) {
	if err := CheckBuildSize(len(events)); err != nil {
		panic(err)
	}
	if len(scratch.perm) != len(events) {
		scratch.sortEdges(events)
	}
	ends := c.Ends[:2*len(events)]
	w := c.Weights[:len(events)]
	scratch.layerPass(c, events, t0, delta)
	if !scratch.scatter(events, ends, w) {
		// The sort reuses scratch.layer, so the layer pass runs again.
		scratch.sortEdges(events)
		c.Keys, c.Off = c.Keys[:0], c.Off[:0]
		scratch.layerPass(c, events, t0, delta)
		if !scratch.scatter(events, ends, w) {
			panic("temporal: fresh edge order is not sorted")
		}
	}
	scratch.compact(c, ends, w)
}

// sortEdges computes scratch.perm for events: the event indices by
// ascending packed (U, V) key, ties in index order, by an LSD radix
// sort over the key bytes that skips every byte position all keys
// share.
func (s *CSRScratch) sortEdges(events []linkstream.Event) {
	n := len(events)
	var counts [8][256]int32 // counts[b][d]: events whose key byte b is d
	for _, e := range events {
		key := snapshot.PackEdge(e.U, e.V)
		for b := range counts {
			counts[b][byte(key>>(8*b))]++
		}
	}
	perm, tmp := growInt32(s.perm, n), growInt32(s.layer, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	first := snapshot.PackEdge(events[0].U, events[0].V)
	for b := range counts {
		c := &counts[b]
		if c[byte(first>>(8*b))] == int32(n) {
			continue
		}
		off := int32(0)
		for d, k := range c {
			c[d] = off
			off += k
		}
		for _, i := range perm {
			e := events[i]
			d := byte(snapshot.PackEdge(e.U, e.V) >> (8 * b))
			tmp[c[d]] = i
			c[d]++
		}
		perm, tmp = tmp, perm
	}
	s.perm, s.layer = perm, tmp
}

// layerPass appends every window's key to c.Keys and the index of its
// first event to c.Off, records each event's layer in s.layer and
// points each layer's write cursor s.cur at its first event's slot.
// Events are sorted by time, so a window ends at the first event past
// its last offset and no event needs a division.
func (s *CSRScratch) layerPass(c *CSR, events []linkstream.Event, t0, delta int64) {
	layer := growInt32(s.layer, len(events))
	cur := growInt32(s.cur, len(events))[:0] // a layer per event at most
	li := int32(-1)
	last := int64(0)
	for i := range events {
		if d := events[i].T - t0; li < 0 || d > last {
			k := d / delta
			c.Keys = append(c.Keys, k)
			c.Off = append(c.Off, i)
			cur = append(cur, int32(i))
			last = windowLast(k, delta)
			li++
		}
		layer[i] = li
	}
	s.layer, s.cur = layer, cur
}

// windowLast returns the largest offset d with d/delta == k under Go's
// truncating division: the last offset of window k.
func windowLast(k, delta int64) int64 {
	switch {
	case k < 0:
		return k * delta
	case k*delta > math.MaxInt64-(delta-1):
		return math.MaxInt64
	default:
		return k*delta + delta - 1
	}
}

// scatter walks s.perm once, appending each event's edge to its layer
// in ends (as U, V) with weight 1, or adding 1 to the weight of the
// layer's last edge when the event repeats it. It reports false, with
// the output unspecified, when (key, layer) descends along s.perm: the
// order does not sort this buffer.
func (s *CSRScratch) scatter(events []linkstream.Event, ends, w []int32) bool {
	layer, cur := s.layer, s.cur
	prevKey, prevLayer, pos := uint64(0), int32(-1), int32(0)
	for _, i := range s.perm {
		e := events[i]
		key := snapshot.PackEdge(e.U, e.V)
		l := layer[i]
		if key <= prevKey {
			if key == prevKey && l == prevLayer {
				w[pos]++
				continue
			}
			if key < prevKey || l < prevLayer {
				return false
			}
		}
		pos = cur[l]
		cur[l] = pos + 1
		ends[2*pos], ends[2*pos+1] = e.U, e.V
		w[pos] = 1
		prevKey, prevLayer = key, l
	}
	return true
}

// compact moves every layer's edges and weights down to close the gaps
// its duplicates left, rewrites c.Off from event offsets to edge
// offsets and sets c.Ends and c.Weights to the compacted prefixes.
func (s *CSRScratch) compact(c *CSR, ends, w []int32) {
	n := 0
	for l, end := range s.cur {
		start := c.Off[l]
		c.Off[l] = n
		if start != n {
			copy(ends[2*n:], ends[2*start:2*int(end)])
			copy(w[n:], w[start:end])
		}
		n += int(end) - start
	}
	c.Off = append(c.Off, n)
	c.Ends, c.Weights = ends[:2*n], w[:n]
}

// growInt32 returns b resized to n, reallocated when too small.
func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// occChunkLen is the fixed capacity of occupancy sink chunks: big
// enough that chunk bookkeeping vanishes, small enough that partially
// filled chunks waste little (512 KiB per chunk).
const occChunkLen = 1 << 16

// The sweep state packs (arrival layer index, hop count) into one
// int64: arrIdx<<32 | hops. Arrival times only ever compare against
// each other, and layer keys are strictly increasing, so comparing
// layer indices is comparing arrivals — and the engine's lexicographic
// "earlier arrival, then fewer hops" improvement test collapses to a
// single integer comparison on the packed value. "One more hop through
// the same relay" is packed+1. Both fields are non-negative and fit 31
// bits (layer count and hop count are bounded by the edge total), so
// the packing is order-preserving.
const unreachPacked = int64(math.MaxInt32) << 32

// noCand is the resting value of cand slots. The commit phase restores
// it for every touched node, so between layers the whole cand array is
// at rest without any epoch bookkeeping, and "is this the node's first
// candidate this layer" is one compare against the slot itself.
const noCand = int64(math.MaxInt64)

// The blocked sweep processes LaneWidth destinations per pass over the
// layers (lanes.go). Blocking amortises the edge stream (loads, loop
// control) across lanes: one (u, v) read feeds LaneWidth independent
// relaxations whose state interleaves in adjacent slots, so a node's
// eight lanes span exactly one 64-byte cache line.

// sweepState is the per-worker scratch of the CSR sweep: 8 bytes of
// standing state and 8 bytes of per-layer candidate state per node (per
// lane in the blocked occupancy sweep). The occupancy sink is a list of
// fixed-size chunks, never a doubling slice: growing a flat slice
// re-copies every element O(log n) times, which profiled as ~25% of the
// whole sweep.
type sweepState struct {
	node      []int64 // packed (arrIdx, hops); unreachPacked if unreachable
	cand      []int64 // packed per-layer candidate; noCand at rest
	seg       []int32 // layer index at which node's (arr, hop) became active
	touched   []int32
	nodeB     []int64           // LaneWidth-lane standing state, slot LaneWidth*node+lane
	candB     []int64           // LaneWidth-lane candidates; noCand at rest
	segB      []int32           // per-slot layer index of the standing state (distance segments)
	occ       []float64         // active occupancy chunk, used when collectOcc
	occChunks [][]float64       // completed chunks
	tripsB    [LaneWidth][]Trip // per-lane trip sinks of the full block sweep (ownership handed to the caller)
}

func newSweepState(n int) *sweepState {
	st := &sweepState{
		node:    make([]int64, n),
		cand:    make([]int64, n),
		seg:     make([]int32, n),
		touched: make([]int32, 0, 64),
	}
	for i := range st.cand {
		st.cand[i] = noCand
	}
	return st
}

// statePool recycles sweep states across calls (and benchmark
// iterations); entries of the wrong size are dropped on Get.
var statePool sync.Pool

func getSweepState(n int) *sweepState {
	if v := statePool.Get(); v != nil {
		st := v.(*sweepState)
		if len(st.node) == n {
			return st
		}
	}
	return newSweepState(n)
}

func putSweepState(st *sweepState) {
	st.occ = nil
	st.occChunks = nil
	statePool.Put(st)
}

// takeOcc flushes the active chunk and hands the caller every completed
// chunk plus the total value count, resetting the sink.
func (st *sweepState) takeOcc() (chunks [][]float64, total int) {
	if len(st.occ) > 0 {
		st.occChunks = append(st.occChunks, st.occ)
	}
	st.occ = nil
	chunks = st.occChunks
	st.occChunks = nil
	for _, ch := range chunks {
		total += len(ch)
	}
	return chunks, total
}

// chunkPool recycles occupancy chunks: a fresh 512 KiB allocation is
// zeroed by the runtime, a pooled one is not, and the sweep emits tens
// of chunks per call.
var chunkPool sync.Pool

// tripLanePool recycles per-destination trip buffers (the lanes of the
// blocked sweep). Streaming consumers hand lanes back with RecycleTrips
// as soon as they have scored them, so a long enumeration's steady-state
// allocation count is bounded by the number of in-flight lanes, not by
// the total trip population.
var tripLanePool sync.Pool

// getTripLane returns a pooled zero-length trip buffer, or nil (append
// allocates on first use).
func getTripLane() []Trip {
	if v := tripLanePool.Get(); v != nil {
		return v.([]Trip)[:0]
	}
	return nil
}

// Trip-lane accounting: tripLanesHanded counts the lanes (cap > 0)
// whose ownership SweepFullBlock transferred to a consumer, and
// tripLanesRecycled the lanes handed back through RecycleTrips. After
// any complete engine run — finished, failed or cancelled — the two
// must balance: a surplus of handed lanes is a pool leak (buffers that
// will never amortise another sweep). The cancellation regression
// tests assert exactly that.
var tripLanesHanded, tripLanesRecycled atomic.Int64

// ResetTripLaneStats zeroes the trip-lane accounting counters.
func ResetTripLaneStats() {
	tripLanesHanded.Store(0)
	tripLanesRecycled.Store(0)
}

// TripLaneStats returns how many pooled trip lanes were handed to
// consumers and how many were recycled since the last
// ResetTripLaneStats.
func TripLaneStats() (handed, recycled int64) {
	return tripLanesHanded.Load(), tripLanesRecycled.Load()
}

// RecycleTrips returns per-destination trip slices — SweepFullBlock
// lanes, CollectTripLanes lanes, stream trip runs — to the lane pool. The
// caller must not touch a slice after recycling it; consumers that keep
// trips must copy them out first.
func RecycleTrips(lanes ...[]Trip) {
	recycled := int64(0)
	for _, l := range lanes {
		if cap(l) > 0 {
			recycled++
			tripLanePool.Put(l[:0])
		}
	}
	tripLanesRecycled.Add(recycled)
}

func newChunk() []float64 {
	if v := chunkPool.Get(); v != nil {
		return v.([]float64)[:0]
	}
	return make([]float64, 0, occChunkLen)
}

// concatChunks assembles chunk lists into one exact-size slice and
// recycles the chunks.
func concatChunks(total int, chunkLists ...[][]float64) []float64 {
	out := make([]float64, 0, total)
	for _, chunks := range chunkLists {
		for _, ch := range chunks {
			out = append(out, ch...)
			chunkPool.Put(ch)
		}
	}
	return out
}

// run performs one backward sweep for destination dest over the CSR.
// It mirrors the slice-based reference sweep over []Layer, kept in
// csr_test.go, with the relax bodies inlined over the flat endpoint
// array. acc, if non nil, accumulates the distance segments. The trip
// and occupancy paths do not come through here — they run the blocked
// sweeps, runOccBlock and runFullBlock.
func (st *sweepState) run(c *CSR, dest int32, directed bool, acc *distAcc) {
	node, cand, seg := st.node, st.cand, st.seg
	for i := range node {
		node[i] = unreachPacked
	}
	keys, off, ends := c.Keys, c.Off, c.Ends
	touched := st.touched[:0]

	for li := len(keys) - 1; li >= 0; li-- {
		key := keys[li]
		touched = touched[:0]
		// Pinning node[dest] to (li, 0 hops) folds the "relay is the
		// destination" case into the generic packed arithmetic: pv+1
		// yields (li, 1 hop), exactly "arrive at this layer in one
		// hop". The pin also keeps dest itself out of the candidate
		// set — every candidate packs an arrival layer >= li and at
		// least one hop, so no p undercuts li<<32. Likewise, an
		// unreachable relay yields unreachPacked+1, which undercuts no
		// standing value either; both special cases vanish from the
		// loop, leaving two loads, an add and one compare per relax.
		node[dest] = int64(li) << 32
		edges := ends[2*off[li] : 2*off[li+1]]
		if directed {
			for j := 0; j+1 < len(edges); j += 2 {
				u, v := edges[j], edges[j+1]
				// A directed link (u, v) lets u move to v; the backward
				// state of v (arrival departing >= key+1) relaxes u.
				if p := node[v] + 1; p < node[u] {
					if c := cand[u]; p < c {
						if c == noCand {
							touched = append(touched, u)
						}
						cand[u] = p
					}
				}
			}
		} else {
			for j := 0; j+1 < len(edges); j += 2 {
				u, v := edges[j], edges[j+1]
				pu, pv := node[u], node[v]
				if p := pv + 1; p < pu {
					if c := cand[u]; p < c {
						if c == noCand {
							touched = append(touched, u)
						}
						cand[u] = p
					}
				}
				if p := pu + 1; p < pv {
					if c := cand[v]; p < c {
						if c == noCand {
							touched = append(touched, v)
						}
						cand[v] = p
					}
				}
			}
		}
		for _, x := range touched {
			p, old := cand[x], node[x]
			cand[x] = noCand
			node[x] = p
			if acc != nil {
				if old != unreachPacked {
					acc.addSegment(keys[old>>32], key+1, keys[seg[x]], int32(old))
				}
				seg[x] = int32(li)
			}
			// A strictly earlier arrival (p>>32 < old>>32) is exactly one
			// minimal trip; the same arrival with fewer hops is not, but
			// both updates feed upstream relaxations and the dhops
			// segments.
		}
	}
	st.touched = touched[:0]

	if acc != nil {
		for u := range node {
			if p := node[u]; int32(u) != dest && p != unreachPacked {
				acc.addSegment(keys[p>>32], acc.kMin, keys[seg[u]], int32(p))
			}
		}
	}
}

// runOccBlock sweeps up to LaneWidth consecutive destinations (first,
// first+1, ...) in one pass over the layers, appending every minimal
// trip's occupancy to the chunk sink. Lane b holds destination first+b;
// lanes past ndests stay entirely unreachable (their pins are never
// set), so every relaxation on them fails the single compare and they
// are inert. Semantically this is exactly ndests independent runs of
// the single-destination sweep.
func (st *sweepState) runOccBlock(c *CSR, first int32, ndests int, directed bool) {
	n := len(st.node)
	if st.nodeB == nil {
		st.nodeB = make([]int64, LaneWidth*n)
		st.candB = make([]int64, LaneWidth*n)
		for i := range st.candB {
			st.candB[i] = noCand
		}
	}
	nodeB, candB := st.nodeB, st.candB
	for i := range nodeB {
		nodeB[i] = unreachPacked
	}
	keys, off, ends := c.Keys, c.Off, c.Ends
	if st.occ == nil {
		st.occ = newChunk()
	}
	occ := st.occ
	touched := st.touched[:0]

	for li := len(keys) - 1; li >= 0; li-- {
		key := keys[li]
		touched = touched[:0]
		// Pin each lane's own destination to (li, 0 hops); see run.
		pin := int64(li) << 32
		for b := 0; b < ndests; b++ {
			nodeB[LaneWidth*int(first+int32(b))+b] = pin
		}
		touched = relaxLanes(nodeB, candB, ends[2*off[li]:2*off[li+1]], directed, touched)
		for _, slot := range touched {
			p, old := candB[slot], nodeB[slot]
			candB[slot] = noCand
			nodeB[slot] = p
			if p>>32 < old>>32 {
				if len(occ) == occChunkLen {
					st.occChunks = append(st.occChunks, occ)
					occ = newChunk()
				}
				occ = append(occ, float64(int32(p))/float64(keys[p>>32]-key+1))
			}
		}
	}
	st.touched = touched[:0]
	st.occ = occ
}

// runFullBlock is runOccBlock with the full product fan-out: the same
// blocked relax kernel, but the commit phase can additionally emit
// every minimal trip into per-lane sinks (st.tripsB, lane b holding
// destination first+b, so concatenating lanes in order yields the exact
// destination-major, departure-descending trip order of consecutive
// single-destination sweeps) and accumulate the distance segments of
// each lane into sink's per-destination slot. Per destination, the
// sequence of segment operations is identical to the single-destination
// sweep's — lanes evolve independently and a slot's commits interleave
// with other lanes' without reordering its own — so the accumulated
// floating-point sums match st.run bit for bit.
func (st *sweepState) runFullBlock(c *CSR, first int32, ndests int, directed bool, wantTrips, wantOcc bool, sink *DistSink) {
	n := len(st.node)
	if st.nodeB == nil {
		st.nodeB = make([]int64, LaneWidth*n)
		st.candB = make([]int64, LaneWidth*n)
		for i := range st.candB {
			st.candB[i] = noCand
		}
	}
	needSeg := sink != nil
	if needSeg && st.segB == nil {
		st.segB = make([]int32, LaneWidth*n)
	}
	nodeB, candB, segB := st.nodeB, st.candB, st.segB
	for i := range nodeB {
		nodeB[i] = unreachPacked
	}
	// Lane sinks start empty each block (the previous block's were
	// handed to the caller): recycled buffers come back through the lane
	// pool with their capacity intact, and the append growth path never
	// zeroes memory — both beat a presized make, which clears its whole
	// capacity.
	if wantTrips {
		for l := 0; l < ndests; l++ {
			if st.tripsB[l] == nil {
				st.tripsB[l] = getTripLane()
			}
		}
	}
	keys, off, ends := c.Keys, c.Off, c.Ends
	touched := st.touched[:0]

	for li := len(keys) - 1; li >= 0; li-- {
		key := keys[li]
		touched = touched[:0]
		// Pin each lane's own destination to (li, 0 hops); see run.
		pin := int64(li) << 32
		for b := 0; b < ndests; b++ {
			nodeB[LaneWidth*int(first+int32(b))+b] = pin
		}
		touched = relaxLanes(nodeB, candB, ends[2*off[li]:2*off[li+1]], directed, touched)
		for _, slot := range touched {
			p, old := candB[slot], nodeB[slot]
			candB[slot] = noCand
			nodeB[slot] = p
			lane := int(slot) & (LaneWidth - 1)
			if needSeg {
				if old != unreachPacked {
					sink.accs[int(first)+lane].addSegment(keys[old>>32], key+1, keys[segB[slot]], int32(old))
				}
				segB[slot] = int32(li)
			}
			if p>>32 < old>>32 {
				if wantTrips {
					st.tripsB[lane] = append(st.tripsB[lane], Trip{
						U: slot / LaneWidth, V: first + int32(lane),
						Dep: key, Arr: keys[p>>32], Hops: int32(p),
					})
				}
				if wantOcc {
					st.pushOcc(key, keys[p>>32], int32(p))
				}
			}
		}
	}
	st.touched = touched[:0]

	if needSeg {
		// Per destination, flush the final standing segments in node
		// order — the same order st.run's tail loop uses.
		for u := 0; u < n; u++ {
			base := LaneWidth * u
			for b := 0; b < ndests; b++ {
				if int32(u) == first+int32(b) {
					continue
				}
				if p := nodeB[base+b]; p != unreachPacked {
					acc := &sink.accs[int(first)+b]
					acc.addSegment(keys[p>>32], acc.kMin, keys[segB[base+b]], int32(p))
				}
			}
		}
	}
}

// forEachDestCSR runs fn for every destination on cfg.Workers parallel
// workers, each owning one pooled sweep state.
func forEachDestCSR(cfg Config, fn func(dest int32, st *sweepState)) {
	w := cfg.workers()
	if w > cfg.N {
		w = cfg.N
	}
	if w <= 1 {
		st := getSweepState(cfg.N)
		for d := int32(0); int(d) < cfg.N; d++ {
			fn(d, st)
		}
		putSweepState(st)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := getSweepState(cfg.N)
			for {
				d := next.Add(1) - 1
				if d >= int64(cfg.N) {
					break
				}
				fn(int32(d), st)
			}
			putSweepState(st)
		}()
	}
	wg.Wait()
}

// CollectTripsCSR returns every minimal trip of the CSR graph in
// destination-major order — destinations in increasing id, departures
// strictly decreasing per (source, destination) — for any worker count.
// It runs the same blocked lane sweep as the unified engine (LaneWidth
// destinations per layer pass, parallel over destination blocks), so
// the reference and engine trip producers share one relax loop; lanes
// are concatenated in block order, which reproduces the order
// consecutive single-destination sweeps would emit.
func CollectTripsCSR(cfg Config, c *CSR) []Trip {
	lanes := CollectTripLanes(cfg, c)
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	out := make([]Trip, 0, total)
	for _, l := range lanes {
		out = append(out, l...)
	}
	RecycleTrips(lanes...)
	return out
}

// CollectTripLanes enumerates every minimal trip of the CSR graph with
// the blocked lane sweep, parallel over destination blocks, and returns
// the per-destination lanes: lane d holds destination d's trips in
// departure-descending order, so iterating lanes front to back visits
// the exact destination-major order of CollectTripsCSR without one flat
// copy. Ownership of the lanes passes to the caller; hand them back
// with RecycleTrips when done.
func CollectTripLanes(cfg Config, c *CSR) [][]Trip {
	blocks := DestBlocks(cfg.N)
	w := cfg.workers()
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	lanes := make([][]Trip, LaneWidth*blocks)
	if w == 1 {
		wk := NewWorker(cfg.N)
		defer wk.Release()
		for b := 0; b < blocks; b++ {
			wk.SweepFullBlock(c, cfg.Directed, b, true, false, nil, lanes[LaneWidth*b:LaneWidth*(b+1)])
		}
		return lanes[:cfg.N]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := NewWorker(cfg.N)
			defer wk.Release()
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				wk.SweepFullBlock(c, cfg.Directed, b, true, false, nil, lanes[LaneWidth*b:LaneWidth*(b+1)])
			}
		}()
	}
	wg.Wait()
	return lanes[:cfg.N]
}

// DestBlocks returns the number of destination blocks the blocked
// sweep schedules for n nodes; block b covers destinations
// [b*LaneWidth, min((b+1)*LaneWidth, n)).
func DestBlocks(n int) int { return (n + LaneWidth - 1) / LaneWidth }

// OccupanciesCSR returns the occupancy rates of all minimal trips of
// the CSR graph. This is the hot path of the occupancy method:
// destinations are swept a lane block at a time, occupancies accumulate
// into fixed-size chunks per worker and are assembled into the
// exact-size result once, so the allocation count is O(trips / chunk
// size + workers), not O(destinations), and no value is copied more
// than once. The per-destination value runs are identical for every
// worker count; only their interleaving across destinations varies, and
// every consumer is order-independent (sorted samples).
func OccupanciesCSR(cfg Config, c *CSR) []float64 {
	blocks := DestBlocks(cfg.N)
	w := cfg.workers()
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	chunkLists := make([][][]float64, w)
	totals := make([]int, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			st := getSweepState(cfg.N)
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					break
				}
				first := b * LaneWidth
				ndests := min(LaneWidth, cfg.N-first)
				st.runOccBlock(c, int32(first), ndests, cfg.Directed)
			}
			chunkLists[slot], totals[slot] = st.takeOcc()
			putSweepState(st)
		}(i)
	}
	wg.Wait()
	total := 0
	for _, t := range totals {
		total += t
	}
	return concatChunks(total, chunkLists...)
}

// pushOcc appends one minimal trip's occupancy to the state's chunk
// sink. It divides exactly as runOccBlock and Trip.Occupancy() do, so
// every occupancy producer yields bit-identical values.
func (st *sweepState) pushOcc(dep, arr int64, hops int32) {
	if st.occ == nil {
		st.occ = newChunk()
	}
	if len(st.occ) == occChunkLen {
		st.occChunks = append(st.occChunks, st.occ)
		st.occ = newChunk()
	}
	st.occ = append(st.occ, float64(hops)/float64(arr-dep+1))
}

// DistSink accumulates the Figure 2 distance segments of a sweep, one
// accumulator per destination so parallel destination sweeps write
// disjoint slots without synchronisation. Stats folds the slots in
// destination order, which keeps the floating-point result independent
// of worker count.
type DistSink struct {
	accs []distAcc
}

// NewDistSink returns a sink for n destinations. kMin is the smallest
// start time considered; durPlus is 1 for graph series (dtime =
// arr-dep+1) and 0 for raw link streams.
func NewDistSink(n int, kMin, durPlus int64) *DistSink {
	s := &DistSink{accs: make([]distAcc, n)}
	for i := range s.accs {
		s.accs[i].kMin = kMin
		s.accs[i].durPlus = durPlus
	}
	return s
}

// Stats folds the per-destination accumulators into the mean distances.
func (s *DistSink) Stats() DistanceStats {
	var total distAcc
	for i := range s.accs {
		total.sumTime += s.accs[i].sumTime
		total.sumHops += s.accs[i].sumHops
		total.count += s.accs[i].count
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

// Worker is a reusable sweep context for external schedulers (one per
// goroutine). Release returns its state to the engine pool.
type Worker struct{ st *sweepState }

// NewWorker returns a worker for graphs with n nodes.
func NewWorker(n int) *Worker { return &Worker{st: getSweepState(n)} }

// SweepOccupancyBlock runs the blocked backward sweep for destination
// block b (see DestBlocks) and accumulates the occupancy of every
// minimal trip in the worker's chunk sink. It is the work-item
// primitive of the multi-delta sweep pipeline (core): the caller owns
// the worker loop, reuses one Worker across all (delta, block) items of
// one delta, and drains the sink with TakeOccupancies at delta
// boundaries.
func (w *Worker) SweepOccupancyBlock(c *CSR, directed bool, b int) {
	n := len(w.st.node)
	first := b * LaneWidth
	w.st.runOccBlock(c, int32(first), min(LaneWidth, n-first), directed)
}

// SweepFullBlock runs the blocked backward sweep for destination block
// b (see DestBlocks), fanning the products of that one pass out:
// occupancies go to the worker's chunk sink (when wantOcc), distance
// segments accumulate into sink's per-destination slots (when sink is
// non-nil), and — when wantTrips — the block's minimal trips are
// written into out, one per-destination slice per lane, with ownership
// passing to the caller; out must hold at least LaneWidth entries (only
// the block's live lanes are assigned, trailing entries of a partial
// final block are left untouched). Lane l, in departure-descending
// order, holds exactly the trips a single-destination sweep of
// destination b*LaneWidth+l would emit, in the same order, so
// concatenating lanes block by block reproduces the destination-major
// trip order without ever copying a trip — callers hand a slice of
// their own lane table and the trips land in place. It is the
// work-item primitive of the unified sweep engine for metric sets
// beyond pure occupancy; each destination is swept exactly once
// regardless of how many products are requested.
func (w *Worker) SweepFullBlock(c *CSR, directed bool, b int, wantTrips, wantOcc bool, sink *DistSink, out [][]Trip) {
	st := w.st
	n := len(st.node)
	first := b * LaneWidth
	ndests := min(LaneWidth, n-first)
	st.runFullBlock(c, int32(first), ndests, directed, wantTrips, wantOcc, sink)
	if wantTrips {
		handed := int64(0)
		for i := 0; i < ndests; i++ {
			out[i] = st.tripsB[i]
			st.tripsB[i] = nil
			if cap(out[i]) > 0 {
				handed++
			}
		}
		tripLanesHanded.Add(handed)
	}
}

// TakeOccupancies drains the worker's occupancy sink: the accumulated
// chunks and their total value count. The worker is ready for the next
// delta afterwards.
func (w *Worker) TakeOccupancies() (chunks [][]float64, total int) {
	return w.st.takeOcc()
}

// RecycleOccupancies returns chunks obtained from TakeOccupancies to
// the engine's chunk pool once every consumer has read their values.
func RecycleOccupancies(chunks [][]float64) {
	for _, ch := range chunks {
		chunkPool.Put(ch)
	}
}

// Release recycles the worker's scratch; the worker must not be used
// afterwards.
func (w *Worker) Release() {
	if w.st != nil {
		putSweepState(w.st)
		w.st = nil
	}
}

// DistancesCSR computes the mean distances (see Distances) on the CSR
// graph.
func DistancesCSR(cfg Config, c *CSR, kMin int64, durPlus int64) DistanceStats {
	sink := NewDistSink(cfg.N, kMin, durPlus)
	forEachDestCSR(cfg, func(dest int32, st *sweepState) {
		st.run(c, dest, cfg.Directed, &sink.accs[dest])
	})
	return sink.Stats()
}

// CountReachablePairsCSR counts ordered pairs (u, v), u != v, joined by
// a temporal path in the CSR graph.
func CountReachablePairsCSR(cfg Config, c *CSR) int64 {
	counts := make([]int64, cfg.N)
	forEachDestCSR(cfg, func(dest int32, st *sweepState) {
		st.run(c, dest, cfg.Directed, nil)
		var n int64
		for u := range st.node {
			if int32(u) != dest && st.node[u] != unreachPacked {
				n++
			}
		}
		counts[dest] = n
	})
	var total int64
	for _, n := range counts {
		total += n
	}
	return total
}
