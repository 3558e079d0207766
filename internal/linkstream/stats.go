package linkstream

// Day is the number of time units in one day at the paper's 1-second
// timestamp resolution. Activity levels in the paper (messages per person
// per day) are expressed against this unit.
const Day int64 = 86400

// Stats summarises the activity of a link stream with the quantities used
// throughout the paper's evaluation (Section 5 and 6).
type Stats struct {
	Nodes    int   // interned nodes
	Active   int   // nodes appearing in at least one event
	Events   int   // number of events
	Span     int64 // t1 - t0 + 1 (time units)
	Distinct int   // distinct timestamps

	// EventsPerNodePerDay is the paper's "activity": number of links per
	// active node per day (each event counts once, for its source node in
	// the directed reading; the paper counts "messages sent ... per person
	// per day" which is events / persons / days).
	EventsPerNodePerDay float64

	// MeanInterContact is the mean, over active nodes, of the node's span
	// divided by its number of events: the average time a node waits
	// between two consecutive links. For time-uniform networks this is the
	// T/(N(n-1)) quantity of Figure 6 (left).
	MeanInterContact float64
}

// ComputeStats scans the stream once and returns its Stats.
// An empty stream yields the zero Stats.
func (s *Stream) ComputeStats() Stats {
	st := Stats{Nodes: s.NumNodes(), Events: s.NumEvents()}
	if len(s.events) == 0 {
		return st
	}
	s.Sort()
	st.Span = s.Duration()

	prevT := s.events[0].T - 1
	for _, e := range s.events {
		if e.T != prevT {
			st.Distinct++
			prevT = e.T
		}
	}

	type nodeAcc struct {
		count    int
		min, max int64
	}
	acc := make([]nodeAcc, s.NumNodes())
	touch := func(id int32, t int64) {
		a := &acc[id]
		if a.count == 0 {
			a.min, a.max = t, t
		} else {
			if t < a.min {
				a.min = t
			}
			if t > a.max {
				a.max = t
			}
		}
		a.count++
	}
	for _, e := range s.events {
		touch(e.U, e.T)
		touch(e.V, e.T)
	}

	var sumIC float64
	for i := range acc {
		a := &acc[i]
		if a.count == 0 {
			continue
		}
		st.Active++
		// A node with c events over span w waits on average w/c between
		// links (w measured over the whole period of study so that rarely
		// active nodes report long waits).
		sumIC += float64(st.Span) / float64(a.count)
	}
	if st.Active > 0 {
		days := float64(st.Span) / float64(Day)
		if days > 0 {
			st.EventsPerNodePerDay = float64(st.Events) / float64(st.Active) / days
		}
		st.MeanInterContact = sumIC / float64(st.Active)
	}
	return st
}
