// Package linkstream implements the link-stream substrate of the
// reproduction: a dynamic network given as a finite collection of triplets
// (u, v, t) meaning that nodes u and v have a link between them at time t.
//
// Timestamps are integers (the paper's sample datasets use a 1-second
// resolution; any integer resolution works). Node identities are interned:
// the public API accepts string names while the analysis layers work on
// dense int32 identifiers, which keeps the temporal-path engine compact.
//
// The zero value of Stream is an empty, ready-to-use stream.
package linkstream

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Event is a single link occurrence (u, v, t). For directed streams the
// link is from U to V; for undirected analyses the orientation is ignored
// (see Canonical).
type Event struct {
	U, V int32
	T    int64
}

// Stream is a finite collection of events over an interned node set.
// Events are kept in insertion order until Sort is called.
type Stream struct {
	events []Event
	names  []string
	index  map[string]int32
	sorted bool
}

// Common errors returned by Stream operations.
var (
	ErrSelfLoop  = errors.New("linkstream: self loop (u == v)")
	ErrBadNodeID = errors.New("linkstream: node id out of range")
	ErrEmpty     = errors.New("linkstream: empty stream")
)

// New returns an empty stream. Equivalent to new(Stream); provided for
// symmetry with the rest of the API.
func New() *Stream { return &Stream{} }

// NumNodes returns the number of interned nodes.
func (s *Stream) NumNodes() int { return len(s.names) }

// NumEvents returns the number of events in the stream.
func (s *Stream) NumEvents() int { return len(s.events) }

// Events returns the underlying event slice. The slice is owned by the
// stream and must not be modified by the caller.
func (s *Stream) Events() []Event { return s.events }

// NodeName returns the interned name of node id. It panics if id is out of
// range, mirroring slice indexing semantics.
func (s *Stream) NodeName(id int32) string { return s.names[id] }

// NodeID returns the id of the named node and whether it exists.
func (s *Stream) NodeID(name string) (int32, bool) {
	id, ok := s.index[name]
	return id, ok
}

// AddNode interns name and returns its id. Adding an existing name returns
// the existing id. Nodes may exist without any event (isolated nodes).
func (s *Stream) AddNode(name string) int32 {
	if id, ok := s.index[name]; ok {
		return id
	}
	if s.index == nil {
		s.index = make(map[string]int32)
	}
	id := int32(len(s.names))
	s.names = append(s.names, name)
	s.index[name] = id
	return id
}

// Add interns both node names and appends the event (u, v, t).
// Self loops are rejected: a link needs two distinct endpoints.
func (s *Stream) Add(u, v string, t int64) error {
	if u == v {
		return fmt.Errorf("%w: %q at t=%d", ErrSelfLoop, u, t)
	}
	return s.AddID(s.AddNode(u), s.AddNode(v), t)
}

// AddID appends an event between two already-interned node ids.
func (s *Stream) AddID(u, v int32, t int64) error {
	if u == v {
		return fmt.Errorf("%w: id %d at t=%d", ErrSelfLoop, u, t)
	}
	if u < 0 || int(u) >= len(s.names) || v < 0 || int(v) >= len(s.names) {
		return fmt.Errorf("%w: (%d,%d) with %d nodes", ErrBadNodeID, u, v, len(s.names))
	}
	s.events = append(s.events, Event{U: u, V: v, T: t})
	s.sorted = false
	return nil
}

// EnsureNodes interns n anonymous nodes named "0".."n-1" if the stream has
// fewer than n nodes. It is the standard way generators size a stream.
func (s *Stream) EnsureNodes(n int) {
	for len(s.names) < n {
		s.AddNode(fmt.Sprintf("%d", len(s.names)))
	}
}

// Sort orders events by time, breaking ties by (U, V) so that sorting is
// deterministic. It is idempotent and marks the stream as sorted.
func (s *Stream) Sort() {
	if s.sorted {
		return
	}
	SortEvents(s.events)
	s.sorted = true
}

// SortEvents sorts events in the engine's canonical order — stably by
// (T, U, V) — the exact order Stream.Sort produces and the columnar
// format's sorted flag promises.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
}

// EngineEvents returns the events of [start, end) (start >= end
// selects the whole stream) in the engine's order — sorted by
// (T, U, V) and, when canonical is requested, with every pair oriented
// U < V. It is the in-memory implementation of the engine's stream
// source: the stream is sorted in place as a side effect, and the
// returned slice aliases the stream's storage unless canonical forced
// an oriented copy. preSorted is always false — the sort pass (even if
// an idempotent no-op) belongs to this call.
func (s *Stream) EngineEvents(start, end int64, canonical bool) ([]Event, bool, error) {
	s.Sort()
	ev := s.events
	if start < end {
		ev = WindowEvents(ev, start, end)
	}
	if canonical {
		ev = Canonical(ev)
	}
	return ev, false, nil
}

// Sorted reports whether the events are known to be in time order.
func (s *Stream) Sorted() bool { return s.sorted }

// Canonical returns a copy of events with every pair oriented U < V,
// the form undirected analyses need. The input order is preserved; the
// input slice is not modified. Building the canonical buffer once and
// sharing it across aggregation periods is what lets the sweep pipeline
// canonicalise a stream a single time.
func Canonical(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	return out
}

// WindowEvents returns the sub-slice of the time-sorted events with
// start <= T < end — the same selection SliceTime makes, without
// copying. Events must already be sorted by time.
func WindowEvents(events []Event, start, end int64) []Event {
	lo := sort.Search(len(events), func(i int) bool { return events[i].T >= start })
	hi := sort.Search(len(events), func(i int) bool { return events[i].T >= end })
	return events[lo:hi]
}

// EventsResolution is Stream.Resolution on a time-sorted event slice:
// the smallest positive gap between consecutive timestamps, 1 when
// there are fewer than two distinct ones.
func EventsResolution(events []Event) int64 {
	res := int64(math.MaxInt64)
	for i := 1; i < len(events); i++ {
		if d := events[i].T - events[i-1].T; d > 0 && d < res {
			res = d
		}
	}
	if res == math.MaxInt64 {
		return 1
	}
	return res
}

// EventsDuration is Stream.Duration on a time-sorted event slice:
// t1 - t0 + 1, or 0 for an empty slice.
func EventsDuration(events []Event) int64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].T - events[0].T + 1
}

// Dedup removes exactly repeated events (same U, V and T). The stream is
// sorted as a side effect. Events (u,v,t) and (v,u,t) are distinct.
func (s *Stream) Dedup() {
	s.Sort()
	out := s.events[:0]
	var prev Event
	for i, e := range s.events {
		if i > 0 && e == prev {
			continue
		}
		out = append(out, e)
		prev = e
	}
	s.events = out
}

// Span returns the first and last timestamps. ok is false for an empty
// stream. The stream is sorted as a side effect.
func (s *Stream) Span() (t0, t1 int64, ok bool) {
	if len(s.events) == 0 {
		return 0, 0, false
	}
	s.Sort()
	return s.events[0].T, s.events[len(s.events)-1].T, true
}

// Duration returns t1 - t0 + 1, the number of time units covered by the
// stream (0 for an empty stream).
func (s *Stream) Duration() int64 {
	s.Sort()
	return EventsDuration(s.events)
}

// Resolution returns the smallest positive gap between two consecutive
// distinct timestamps, which is the natural minimal aggregation period of
// the stream. It returns 1 for streams with fewer than two distinct
// timestamps. The stream is sorted as a side effect.
func (s *Stream) Resolution() int64 {
	s.Sort()
	return EventsResolution(s.events)
}

// Clone returns a deep copy of the stream.
func (s *Stream) Clone() *Stream {
	c := &Stream{
		events: append([]Event(nil), s.events...),
		names:  append([]string(nil), s.names...),
		sorted: s.sorted,
	}
	if s.index != nil {
		c.index = make(map[string]int32, len(s.index))
		for k, v := range s.index {
			c.index[k] = v
		}
	}
	return c
}

// SliceTime returns a new stream containing the events with t0 <= T < t1.
// The node set (interning) is shared structure-wise: the clone keeps all
// node names so ids remain stable.
func (s *Stream) SliceTime(t0, t1 int64) *Stream {
	s.Sort()
	c := &Stream{names: append([]string(nil), s.names...), sorted: true}
	if s.index != nil {
		c.index = make(map[string]int32, len(s.index))
		for k, v := range s.index {
			c.index[k] = v
		}
	}
	c.events = append([]Event(nil), WindowEvents(s.events, t0, t1)...)
	return c
}

// Filter returns a new stream (sharing a copy of the node table, so ids
// stay stable) containing the events for which keep returns true.
func (s *Stream) Filter(keep func(i int, e Event) bool) *Stream {
	c := &Stream{names: append([]string(nil), s.names...), sorted: s.sorted}
	if s.index != nil {
		c.index = make(map[string]int32, len(s.index))
		for k, v := range s.index {
			c.index[k] = v
		}
	}
	for i, e := range s.events {
		if keep(i, e) {
			c.events = append(c.events, e)
		}
	}
	return c
}

// ShiftTime adds offset to every timestamp.
func (s *Stream) ShiftTime(offset int64) {
	for i := range s.events {
		s.events[i].T += offset
	}
}

// Validate checks internal invariants: node ids in range and no self
// loops. It returns the first violation found, or nil.
func (s *Stream) Validate() error {
	n := int32(len(s.names))
	for i, e := range s.events {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("%w: event %d = (%d,%d,%d)", ErrBadNodeID, i, e.U, e.V, e.T)
		}
		if e.U == e.V {
			return fmt.Errorf("%w: event %d at t=%d", ErrSelfLoop, i, e.T)
		}
	}
	return nil
}
