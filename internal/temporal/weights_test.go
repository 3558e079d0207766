package temporal

import (
	"math/rand"
	"testing"

	"repro/internal/linkstream"
	"repro/internal/snapshot"
)

// mapWeights is the obvious reference for the build's weights
// (CSR.Weights): count the contacts of every (window, packed edge) pair
// in nested maps.
func mapWeights(events []linkstream.Event, t0, delta int64) map[int64]map[uint64]int32 {
	counts := make(map[int64]map[uint64]int32)
	for _, e := range events {
		k := (e.T - t0) / delta
		m := counts[k]
		if m == nil {
			m = make(map[uint64]int32)
			counts[k] = m
		}
		m[snapshot.PackEdge(e.U, e.V)]++
	}
	return counts
}

// checkWeights asserts the CSR.Weights contract against the map
// reference: one weight per CSR edge, aligned index-for-index, every
// weight ≥ 1, and each layer summing to its window's event count.
func checkWeights(t *testing.T, events []linkstream.Event, t0, delta int64, c *CSR, w []int32) {
	t.Helper()
	if len(w) != c.Off[len(c.Off)-1] {
		t.Fatalf("len(weights) = %d, want total edge count %d", len(w), c.Off[len(c.Off)-1])
	}
	ref := mapWeights(events, t0, delta)
	var total int64
	for li := 0; li < c.NumLayers(); li++ {
		m := ref[c.Keys[li]]
		var layerSum int64
		for e := c.Off[li]; e < c.Off[li+1]; e++ {
			if w[e] < 1 {
				t.Fatalf("layer %d edge %d: weight %d < 1", li, e, w[e])
			}
			key := snapshot.PackEdge(c.Ends[2*e], c.Ends[2*e+1])
			if want := m[key]; w[e] != want {
				t.Fatalf("layer %d edge %d (key %d): weight %d, map reference %d", li, e, key, w[e], want)
			}
			layerSum += int64(w[e])
		}
		var winEvents int64
		for _, c := range m {
			winEvents += int64(c)
		}
		if layerSum != winEvents {
			t.Fatalf("layer %d: weights sum to %d, window has %d events", li, layerSum, winEvents)
		}
		total += layerSum
	}
	if total != int64(len(events)) {
		t.Fatalf("weights sum to %d over all layers, want event count %d", total, len(events))
	}
}

func TestEdgeWeightsCSRMatchesMapCount(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(9))
		events := make([]linkstream.Event, 0, 80)
		for i := 0; i < 1+rng.Intn(80); i++ {
			u := rng.Int31n(n)
			v := rng.Int31n(n - 1)
			if v >= u {
				v++
			}
			events = append(events, linkstream.Event{T: rng.Int63n(500), U: u, V: v})
		}
		linkstream.SortEvents(events)
		t0 := events[0].T
		for _, delta := range []int64{1, 7, 50, 500} {
			var scratch CSRScratch
			c := BuildCSR(events, t0, delta, &scratch)
			checkWeights(t, events, t0, delta, c, c.Weights)
		}
	}
}

// FuzzEdgeWeights fuzzes the weighted aggregation the build counts:
// decode an arbitrary event list from the input, build the CSR with its
// weights, and check the alignment and conservation invariants against
// the map reference.
func FuzzEdgeWeights(f *testing.F) {
	f.Add([]byte{3, 0, 1, 5, 0, 1, 2, 9, 0, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{60, 4, 3, 200, 17, 3, 4, 201, 220})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		delta := 1 + int64(data[0]%64)
		data = data[1:]
		var events []linkstream.Event
		for len(data) >= 4 {
			u := int32(data[0] % 8)
			v := int32(data[1] % 8)
			tt := int64(data[2]) | int64(data[3])<<8
			data = data[4:]
			if u == v {
				continue
			}
			events = append(events, linkstream.Event{T: tt, U: u, V: v})
		}
		if len(events) == 0 {
			return
		}
		linkstream.SortEvents(events)
		t0 := events[0].T
		var scratch CSRScratch
		c := BuildCSR(events, t0, delta, &scratch)
		checkWeights(t, events, t0, delta, c, c.Weights)
	})
}
