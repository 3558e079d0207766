package linkstream

import (
	"bufio"
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// figure1 builds the link stream of the paper's Figure 1: nodes a..e,
// a handful of events over three aggregation windows.
func figure1(t *testing.T) *Stream {
	t.Helper()
	s := New()
	adds := []struct {
		u, v string
		t    int64
	}{
		{"e", "d", 1}, {"a", "b", 2}, {"d", "c", 4},
		{"c", "b", 5}, {"e", "a", 6}, {"a", "b", 8},
		{"d", "e", 9}, {"c", "b", 10}, {"b", "a", 11},
	}
	for _, a := range adds {
		if err := s.Add(a.u, a.v, a.t); err != nil {
			t.Fatalf("Add(%v): %v", a, err)
		}
	}
	return s
}

func TestAddInterning(t *testing.T) {
	s := New()
	if err := s.Add("x", "y", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("y", "x", 20); err != nil {
		t.Fatal(err)
	}
	if got := s.NumNodes(); got != 2 {
		t.Fatalf("NumNodes = %d, want 2", got)
	}
	id, ok := s.NodeID("x")
	if !ok || id != 0 {
		t.Fatalf("NodeID(x) = %d,%v want 0,true", id, ok)
	}
	if name := s.NodeName(1); name != "y" {
		t.Fatalf("NodeName(1) = %q, want y", name)
	}
	if s.NumEvents() != 2 {
		t.Fatalf("NumEvents = %d, want 2", s.NumEvents())
	}
}

func TestSelfLoopRejected(t *testing.T) {
	s := New()
	if err := s.Add("a", "a", 1); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("Add self loop: err = %v, want ErrSelfLoop", err)
	}
	s.AddNode("a")
	s.AddNode("b")
	if err := s.AddID(1, 1, 5); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("AddID self loop: err = %v, want ErrSelfLoop", err)
	}
}

func TestAddIDRange(t *testing.T) {
	s := New()
	s.AddNode("a")
	if err := s.AddID(0, 3, 1); !errors.Is(err, ErrBadNodeID) {
		t.Fatalf("AddID out of range: err = %v, want ErrBadNodeID", err)
	}
	if err := s.AddID(-1, 0, 1); !errors.Is(err, ErrBadNodeID) {
		t.Fatalf("AddID negative: err = %v, want ErrBadNodeID", err)
	}
}

func TestSortAndSpan(t *testing.T) {
	s := figure1(t)
	t0, t1, ok := s.Span()
	if !ok || t0 != 1 || t1 != 11 {
		t.Fatalf("Span = %d,%d,%v want 1,11,true", t0, t1, ok)
	}
	if !s.Sorted() {
		t.Fatal("stream should be sorted after Span")
	}
	ev := s.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].T < ev[i-1].T {
			t.Fatalf("events not sorted at %d: %v before %v", i, ev[i-1], ev[i])
		}
	}
	if got := s.Duration(); got != 11 {
		t.Fatalf("Duration = %d, want 11", got)
	}
}

func TestEmptySpan(t *testing.T) {
	s := New()
	if _, _, ok := s.Span(); ok {
		t.Fatal("Span of empty stream should report ok=false")
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("Duration of empty stream = %d, want 0", d)
	}
	if r := s.Resolution(); r != 1 {
		t.Fatalf("Resolution of empty stream = %d, want 1", r)
	}
}

func TestResolution(t *testing.T) {
	s := New()
	for _, tt := range []int64{0, 100, 130, 1000} {
		if err := s.Add("a", "b", tt); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Resolution(); r != 30 {
		t.Fatalf("Resolution = %d, want 30", r)
	}
}

func TestNormalizeDedup(t *testing.T) {
	s := New()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Built canonical (U < V), the form Canonical gives an undirected
	// stream: the reversed link (b, a, 5) enters as (a, b, 5).
	check(s.Add("a", "b", 5))
	check(s.Add("a", "b", 5)) // (b, a, 5), canonical
	check(s.Add("a", "b", 5)) // exact duplicate
	check(s.Add("a", "b", 6))
	s.Dedup()
	if s.NumEvents() != 2 {
		t.Fatalf("after Dedup: %d events, want 2", s.NumEvents())
	}
	for _, e := range s.Events() {
		if e.U >= e.V {
			t.Fatalf("event not normalized: %+v", e)
		}
	}
}

func TestDedupKeepsDirectedDistinct(t *testing.T) {
	s := New()
	if err := s.Add("a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", "a", 5); err != nil {
		t.Fatal(err)
	}
	s.Dedup()
	if s.NumEvents() != 2 {
		t.Fatalf("directed dedup removed reversed event: %d events, want 2", s.NumEvents())
	}
}

func TestSliceTime(t *testing.T) {
	s := figure1(t)
	sub := s.SliceTime(4, 9)
	if sub.NumEvents() != 4 { // t = 4, 5, 6, 8
		t.Fatalf("SliceTime(4,9): %d events, want 4", sub.NumEvents())
	}
	if sub.NumNodes() != s.NumNodes() {
		t.Fatalf("SliceTime should keep node table: %d vs %d", sub.NumNodes(), s.NumNodes())
	}
	for _, e := range sub.Events() {
		if e.T < 4 || e.T >= 9 {
			t.Fatalf("event outside slice: %+v", e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := figure1(t)
	c := s.Clone()
	if err := c.Add("z", "a", 100); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() == c.NumNodes() {
		t.Fatal("clone shares node table with original")
	}
	if s.NumEvents() == c.NumEvents() {
		t.Fatal("clone shares event slice with original")
	}
}

func TestShiftTime(t *testing.T) {
	s := figure1(t)
	s.ShiftTime(-1)
	t0, _, _ := s.Span()
	if t0 != 0 {
		t.Fatalf("after ShiftTime(-1): t0 = %d, want 0", t0)
	}
}

func TestValidate(t *testing.T) {
	s := figure1(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate on good stream: %v", err)
	}
	s.events = append(s.events, Event{U: 0, V: 99, T: 1})
	if err := s.Validate(); !errors.Is(err, ErrBadNodeID) {
		t.Fatalf("Validate with bad id: %v, want ErrBadNodeID", err)
	}
	s.events[len(s.events)-1] = Event{U: 2, V: 2, T: 1}
	if err := s.Validate(); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("Validate with self loop: %v, want ErrSelfLoop", err)
	}
}

func TestStats(t *testing.T) {
	s := New()
	// Two nodes exchanging one message a day for 10 days.
	for d := int64(0); d < 10; d++ {
		if err := s.Add("a", "b", d*Day); err != nil {
			t.Fatal(err)
		}
	}
	st := s.ComputeStats()
	if st.Events != 10 || st.Nodes != 2 || st.Active != 2 {
		t.Fatalf("stats = %+v", st)
	}
	wantSpan := 9*Day + 1
	if st.Span != wantSpan {
		t.Fatalf("Span = %d, want %d", st.Span, wantSpan)
	}
	if st.Distinct != 10 {
		t.Fatalf("Distinct = %d, want 10", st.Distinct)
	}
	// 10 events / 2 persons / ~9 days ~= 0.55 events/person/day.
	if st.EventsPerNodePerDay < 0.5 || st.EventsPerNodePerDay > 0.62 {
		t.Fatalf("EventsPerNodePerDay = %v", st.EventsPerNodePerDay)
	}
	// Each node has 10 events over the span: inter-contact ~ span/10.
	wantIC := float64(wantSpan) / 10
	if st.MeanInterContact != wantIC {
		t.Fatalf("MeanInterContact = %v, want %v", st.MeanInterContact, wantIC)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stream
	st := s.ComputeStats()
	if st != (Stats{}) {
		t.Fatalf("empty stats = %+v, want zero", st)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := figure1(t)
	var buf strings.Builder
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back := New()
	n, err := back.ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != s.NumEvents() {
		t.Fatalf("round trip read %d events, want %d", n, s.NumEvents())
	}
	if back.NumNodes() != s.NumNodes() {
		t.Fatalf("round trip nodes = %d, want %d", back.NumNodes(), s.NumNodes())
	}
	a, b := s.Events(), back.Events()
	for i := range a {
		au, av := s.NodeName(a[i].U), s.NodeName(a[i].V)
		bu, bv := back.NodeName(b[i].U), back.NodeName(b[i].V)
		if au != bu || av != bv || a[i].T != b[i].T {
			t.Fatalf("event %d differs: (%s,%s,%d) vs (%s,%s,%d)", i, au, av, a[i].T, bu, bv, b[i].T)
		}
	}
}

func TestReadEventsComments(t *testing.T) {
	in := "# comment\n% konect comment\n\n a b 3 \nb c 4 extra-column\n"
	s := New()
	n, err := s.ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("read %d events, want 2", n)
	}
}

func TestReadEventsErrors(t *testing.T) {
	cases := []string{
		"a b\n",                          // too few fields
		"a b xyz\n",                      // bad timestamp
		"a a 4\n",                        // self loop
		"a b 999999999999999999999999\n", // overflow
	}
	for _, in := range cases {
		s := New()
		if _, err := s.ReadEvents(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadEvents(%q): expected error", in)
		}
	}
}

func TestReadEventsLineTooLong(t *testing.T) {
	// Line 3 blows the cap; the error must carry that line number and
	// wrap bufio.ErrTooLong.
	in := "a b 1\nb c 2\nc d 3 " + strings.Repeat("x", 256) + "\nd e 4\n"
	s := New()
	n, err := s.ReadEventsWith(strings.NewReader(in), ReadOptions{MaxLineBytes: 64})
	if err == nil {
		t.Fatal("expected an overflow error")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error %v should wrap bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v should name line 3", err)
	}
	if n != 2 {
		t.Fatalf("read %d events before the overflow, want 2", n)
	}
}

func TestReadEventsWithLargerCap(t *testing.T) {
	// The same long line parses fine once the cap admits it, trailing
	// columns ignored.
	in := "a b 1\nc d 3 " + strings.Repeat("x", 4096) + "\n"
	s := New()
	if _, err := s.ReadEvents(strings.NewReader(in)); err != nil {
		t.Fatalf("default 1 MiB cap should admit a 4 KiB line: %v", err)
	}
	s = New()
	n, err := s.ReadEventsWith(strings.NewReader(in), ReadOptions{MaxLineBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("read %d events, want 2", n)
	}
}

// Property: sorting is a permutation (event multiset preserved) and
// WriteTo/ReadFrom round-trips arbitrary small streams.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.EnsureNodes(5)
		for _, r := range raw {
			u := int32(r % 5)
			v := int32((r / 5) % 5)
			if u == v {
				continue
			}
			if err := s.AddID(u, v, int64(rng.Intn(1000))); err != nil {
				return false
			}
		}
		var buf strings.Builder
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		back := New()
		if _, err := back.ReadEvents(strings.NewReader(buf.String())); err != nil {
			return false
		}
		if back.NumEvents() != s.NumEvents() {
			return false
		}
		// Compare as multisets of (name, name, t) tuples: interning order
		// differs between the two streams, so ids are not comparable.
		key := func(st *Stream, e Event) string {
			return st.NodeName(e.U) + " " + st.NodeName(e.V) + " " + strconv.FormatInt(e.T, 10)
		}
		var ka, kb []string
		for _, e := range s.Events() {
			ka = append(ka, key(s, e))
		}
		for _, e := range back.Events() {
			kb = append(kb, key(back, e))
		}
		sort.Strings(ka)
		sort.Strings(kb)
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
		}
		return back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
