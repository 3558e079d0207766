package adaptive

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/linkstream"
)

// AnalyzeReference is the reference implementation of the adaptive
// analysis that repro.WithAdaptive plans are tested against: one full
// core.SaturationScale pass over the whole stream plus one pass per
// segment of at least MinSegmentEvents events, each slicing and
// re-canonicalising its own copy of the events and spinning its own
// engine. opt carries the execution settings of every pass; its Grid
// is ignored. Each pass derives a logarithmic grid of gridPoints
// points (DefaultGridPoints when <= 0): the global one from minDelta
// (the stream's resolution when <= 0), each segment's from its own
// resolution, up to the pass's own span.
func AnalyzeReference(s *linkstream.Stream, cfg Config, opt core.Options, gridPoints int, minDelta int64) (*Analysis, error) {
	segs, twoMode, err := Segments(s, cfg)
	if err != nil {
		return nil, err
	}
	if gridPoints <= 0 {
		gridPoints = DefaultGridPoints
	}
	if minDelta <= 0 {
		minDelta = s.Resolution()
	}
	opt.Grid = core.LogGrid(minDelta, s.Duration(), gridPoints)
	global, err := core.SaturationScale(context.Background(), s, opt)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Segments: segs, TwoMode: twoMode, Global: global, GlobalGamma: global.Gamma}
	a.MinGamma = global.Gamma
	for i := range a.Segments {
		seg := &a.Segments[i]
		sub := s.SliceTime(seg.Start, seg.End)
		if sub.NumEvents() < MinSegmentEvents {
			continue
		}
		opt.Grid = core.LogGrid(sub.Resolution(), sub.Duration(), gridPoints)
		res, err := core.SaturationScale(context.Background(), sub, opt)
		if err != nil {
			return nil, fmt.Errorf("adaptive: segment [%d,%d): %w", seg.Start, seg.End, err)
		}
		seg.Gamma = res.Gamma
		if res.Gamma < a.MinGamma {
			a.MinGamma = res.Gamma
		}
	}
	return a, nil
}
