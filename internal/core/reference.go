package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/linkstream"
	"repro/internal/temporal"
)

// SweepReference is the seed implementation of Sweep: a sequential
// per-∆ loop that aggregates, enumerates every period's minimal trips
// and scores one period at a time, with none of the engine's fused
// scheduling. Each period's values are Trip.Occupancy() — hops over
// duration in windows, by division, as Definition 7 states — over
// temporal.CollectTripsCSR, not the engine's occupancy sink
// (temporal.OccupanciesCSR), so the equivalence tests compare the
// engine with the paper's definition rather than with itself. The
// separate-passes benchmarks measure the engine against it.
func SweepReference(s *linkstream.Stream, grid []int64, opt Options) ([]SweepPoint, error) {
	if s.NumEvents() == 0 {
		return nil, ErrNoEvents
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("core: empty candidate grid")
	}
	sels := opt.selectors()
	events := sortedEvents(s, opt.Directed)
	t0 := events[0].T
	cfg := temporal.Config{N: s.NumNodes(), Directed: opt.Directed, Workers: opt.Workers}
	var scratch temporal.CSRScratch
	points := make([]SweepPoint, 0, len(grid))
	for _, delta := range grid {
		if delta <= 0 {
			return nil, fmt.Errorf("core: non-positive aggregation period %d", delta)
		}
		c := temporal.BuildCSR(events, t0, delta, &scratch)
		trips := temporal.CollectTripsCSR(cfg, c)
		occ := make([]float64, len(trips))
		for i, tr := range trips {
			occ[i] = tr.Occupancy()
		}
		p := SweepPoint{Delta: delta, Scores: make([]float64, len(sels))}
		if opt.HistogramBins > 0 {
			h := dist.NewHistogram(opt.HistogramBins)
			h.AddAll(occ)
			p.Trips = int(h.N())
			mk := h.MKProximity()
			for si := range sels {
				p.Scores[si] = mk
			}
		} else {
			sample, err := dist.NewSample(occ)
			if err != nil {
				return nil, err
			}
			p.Trips = sample.N()
			for si, sel := range sels {
				p.Scores[si] = sel.Score(sample)
			}
		}
		points = append(points, p)
	}
	return points, nil
}
