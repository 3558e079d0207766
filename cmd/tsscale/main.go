// Command tsscale computes the saturation scale γ of a link stream: the
// largest aggregation period that does not alter the propagation
// properties of the dynamic network (the occupancy method of Léo,
// Crespelle, Fleury — CoNEXT 2015).
//
// Usage:
//
//	tsscale [flags] < stream.txt
//	tsscale [flags] -in stream.txt
//
// The stream format is one "<u> <v> <t>" event per line ('#'/'%'
// comments allowed). The tool prints γ and, with -curve, the full M-K
// proximity curve.
//
// tsscale is a thin caller of the plan/run lifecycle: the shared flags
// (internal/cli) map onto repro.Option values, one repro.NewAnalysis
// plan fuses the occupancy method with every requested -metrics curve
// (and, with -adaptive, the per-segment scale searches), and the whole
// run is a Plan.Run whose Report feeds the output tables.
//
// With -coordinator the same flags become a PlanSpec submitted to a
// tsserve coordinator (see cmd/tsserve), whose distributed fold is
// byte-identical to running the plan locally.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsscale:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsscale", flag.ContinueOnError)
	f := cli.Bind(fs, cli.Defaults{
		Points:  repro.DefaultGridPoints,
		Metrics: "occupancy",
		MetricsHelp: "comma-separated metrics computed in one fused engine pass: " +
			"occupancy,classic,distance,loss,elongation,degree,clustering,components,coreness,weighted " +
			"(occupancy always included; extra metrics see the unrefined grid; see docs/METRICS.md)",
	})
	refine := fs.Int("refine", 4, "extra refinement points around the best period (0 = off)")
	curve := fs.Bool("curve", false, "print the full proximity curve")
	allSel := fs.Bool("all-selectors", false, "score with all five Section 7 metrics")
	adaptiveMode := fs.Bool("adaptive", false,
		"segment activity modes and determine per-segment scales; the global sweep, every segment sweep and any -metrics extras share one fused engine pass")
	progress := fs.Bool("progress", false, "stream per-period progress to stderr while the analysis runs")
	jsonOut := fs.Bool("json", false,
		"print the report as the versioned JSON wire envelope (the exact bytes tsserve's result endpoint returns for the same plan) instead of the human tables")
	coordinator := fs.String("coordinator", "",
		"submit the analysis to a tsserve coordinator at this URL instead of running locally; -stream paths resolve under the coordinator's stream root, and the folded report is byte-identical to a local run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	metrics, err := f.ParseMetrics([]repro.Metric{repro.MetricOccupancy}, nil)
	if err != nil {
		return err
	}

	var sels []repro.Selector
	if *allSel {
		sels = repro.AllSelectors()
	}
	if *coordinator != "" {
		return runCoordinator(*coordinator, f, metrics, sels, *refine, *adaptiveMode, *jsonOut, *curve, *allSel, stdin, stdout)
	}

	s, inputOpts, err := f.Input(stdin)
	if err != nil {
		return err
	}
	opts := f.PlanOptions(metrics...)
	opts = append(opts, inputOpts...)
	opts = append(opts, repro.WithRefine(*refine), repro.WithSelectors(sels...))
	if *adaptiveMode {
		// Execution knobs (orientation, workers, grid shape, refinement,
		// budgets) are already plan options above; WithAdaptive only
		// turns the segmentation on.
		opts = append(opts, repro.WithAdaptive(repro.AdaptiveConfig{}))
	}
	if *progress {
		opts = append(opts, repro.WithProgress(func(ev repro.ProgressEvent) {
			if ev.Stage == repro.ProgressPeriod {
				fmt.Fprintf(os.Stderr, "\rpass %d: %d/%d periods", ev.Pass, ev.PeriodsDone, ev.PeriodsTotal)
			}
		}))
	}

	plan, err := repro.NewAnalysis(s, opts...)
	if err != nil {
		return err
	}
	defer plan.Close()
	rep, err := plan.Run(context.Background())
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		// The same bytes tsserve serves for this plan: the CI serve-e2e
		// leg diffs them against an HTTP-fetched report.
		data, err := serve.EncodeReport(rep)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", data); err != nil {
			return err
		}
		if f.EngineStats {
			fmt.Fprintf(os.Stderr, "%s\n", cli.EngineStatsLine(rep.EngineStats()))
		}
		return nil
	}
	// Stats come from the plan's view of the stream so -in and -stream
	// print byte-identical headers (a mapped columnar input has no
	// *Stream until asked for one).
	ms, err := plan.Stream()
	if err != nil {
		return err
	}
	st := ms.ComputeStats()
	fmt.Fprintf(stdout, "events: %d  nodes: %d  span: %ds  activity: %.3f msgs/person/day\n",
		st.Events, st.Nodes, st.Span, st.EventsPerNodePerDay)
	return renderReport(stdout, f, rep, sels, *curve, *allSel)
}

// renderReport prints the human tables of a report — shared by the
// local run and the coordinator-submitted run, whose folded report
// renders identically (minus the stream-stats header, which needs the
// stream itself).
func renderReport(stdout io.Writer, f *cli.Flags, rep *repro.Report, sels []repro.Selector, curve, allSel bool) error {
	res, _ := rep.Scale()
	fmt.Fprintf(stdout, "saturation scale gamma = %d s (%.2f h) [selector %s, score %.4f]\n",
		res.Gamma, float64(res.Gamma)/3600, res.Selector, res.Score)

	if allSel {
		rows := make([][]string, 0, len(sels))
		for i, sel := range sels {
			best := repro.BestPoint(res.Points, i)
			rows = append(rows, []string{
				sel.Name(),
				fmt.Sprintf("%d", res.Points[best].Delta),
				fmt.Sprintf("%.2f", float64(res.Points[best].Delta)/3600),
			})
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, textplot.Table([]string{"selector", "period (s)", "period (h)"}, rows))
	}
	if a := rep.Adaptive(); a != nil {
		fmt.Fprintf(stdout, "\nadaptive analysis: two-mode = %v, min per-segment gamma = %d s\n",
			a.TwoMode, a.MinGamma)
		rows := make([][]string, 0, len(a.Segments))
		for _, seg := range a.Segments {
			mode := "low"
			if seg.HighActivity {
				mode = "high"
			}
			gamma := "-"
			if seg.Gamma > 0 {
				gamma = fmt.Sprintf("%.2fh", float64(seg.Gamma)/3600)
			}
			rows = append(rows, []string{
				fmt.Sprintf("[%d, %d)", seg.Start, seg.End),
				mode,
				fmt.Sprintf("%d", seg.Events),
				gamma,
			})
		}
		fmt.Fprint(stdout, textplot.Table([]string{"segment", "mode", "events", "gamma"}, rows))
	}
	if pts := rep.Classic(); pts != nil {
		rows := make([][]string, 0, len(pts))
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Delta),
				fmt.Sprintf("%.5f", p.MeanDensity),
				fmt.Sprintf("%.3f", p.MeanDegree),
				fmt.Sprintf("%.2f", p.MeanNonIsolated),
				fmt.Sprintf("%.2f", p.MeanLargestComp),
			})
		}
		fmt.Fprintln(stdout, "\nclassical properties (Figure 2):")
		fmt.Fprint(stdout, textplot.Table(
			[]string{"period (s)", "density", "degree", "non-isolated", "largest comp"}, rows))
	}
	if pts := rep.Distances(); pts != nil {
		rows := make([][]string, 0, len(pts))
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.Delta),
				fmt.Sprintf("%.3f", p.MeanTime),
				fmt.Sprintf("%.3f", p.MeanHops),
				fmt.Sprintf("%.3f", p.MeanAbsTime/3600),
				fmt.Sprintf("%d", p.FinitePairs),
			})
		}
		fmt.Fprintln(stdout, "\nmean temporal distances:")
		fmt.Fprint(stdout, textplot.Table(
			[]string{"period (s)", "dtime (windows)", "dhops", "dabstime (h)", "finite triples"}, rows))
	}
	loss, elong := rep.TransitionLoss(), rep.Elongation()
	if loss != nil || elong != nil {
		// Both observers scored the same (unrefined) grid; label rows
		// with their own deltas — res.Points may hold refined extras.
		deltas := make([]int64, 0)
		header := []string{"period (s)"}
		if loss != nil {
			header = append(header, "transitions lost")
			for _, p := range loss {
				deltas = append(deltas, p.Delta)
			}
		}
		if elong != nil {
			header = append(header, "mean elongation")
			if loss == nil {
				for _, p := range elong {
					deltas = append(deltas, p.Delta)
				}
			}
		}
		rows := make([][]string, 0, len(deltas))
		for i, delta := range deltas {
			row := []string{fmt.Sprintf("%d", delta)}
			if loss != nil {
				row = append(row, fmt.Sprintf("%.1f%%", 100*loss[i].Lost))
			}
			if elong != nil {
				el := "-"
				if p := elong[i]; p.Trips > 0 {
					el = fmt.Sprintf("%.2f", p.MeanElongation)
				}
				row = append(row, el)
			}
			rows = append(rows, row)
		}
		fmt.Fprintln(stdout, "\nvalidation (Section 8):")
		fmt.Fprint(stdout, textplot.Table(header, rows))
	}
	cli.SnapshotTables(stdout, rep.Snapshots())
	if curve {
		pts := make([]textplot.XY, 0, len(res.Points))
		for _, p := range res.Points {
			pts = append(pts, textplot.XY{X: float64(p.Delta) / 3600, Y: p.Scores[0]})
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, textplot.Plot(textplot.PlotConfig{
			Title:  "M-K proximity vs aggregation period",
			XLabel: "period (h)", YLabel: "proximity", LogX: true, Height: 14,
		}, textplot.Series{Name: "proximity", Marker: '+', Points: pts}))
	}
	if f.EngineStats {
		// With -adaptive, the dedup count exposes the homogeneous-stream
		// case: a single activity segment coincides with the global
		// scope, so every period is built once and fanned to both.
		fmt.Fprintf(stdout, "\n%s\n", cli.EngineStatsLine(rep.EngineStats()))
	}
	return nil
}

// runCoordinator maps the flags onto a PlanSpec and submits it to a
// tsserve coordinator. A -stream path travels as-is in the spec — it
// resolves under the coordinator's stream root, not locally — while
// -in/stdin input is inlined into the spec. The folded report comes
// back over the same wire envelope tsserve uses, so -json prints
// coordinator bytes that diff clean against a local `tsscale -json`
// run of the same plan.
func runCoordinator(coordURL string, f *cli.Flags, metrics []repro.Metric, sels []repro.Selector,
	refine int, adaptiveMode, jsonOut, curve, allSel bool, stdin io.Reader, stdout io.Writer) error {
	spec := &repro.PlanSpec{
		Directed:   f.Directed,
		GridPoints: f.Points,
		MinDelta:   f.MinDelta,
		Refine:     refine,
	}
	for _, m := range metrics {
		spec.Metrics = append(spec.Metrics, m.String())
	}
	for _, sel := range sels {
		spec.Selectors = append(spec.Selectors, sel.Name())
	}
	if adaptiveMode {
		spec.Adaptive = &repro.AdaptiveSpec{}
	}
	if f.Stream != "" {
		if f.In != "" {
			return fmt.Errorf("-in and -stream are mutually exclusive")
		}
		spec.Stream = &repro.StreamRef{Path: f.Stream}
	} else {
		s, err := f.ReadStream(stdin)
		if err != nil {
			return err
		}
		spec.Inline = repro.InlineEventsOf(s)
	}

	body, err := serve.EncodePlan(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(coordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if jsonOut {
		_, err := fmt.Fprintf(stdout, "%s\n", data)
		return err
	}
	rep, err := serve.DecodeReport(data)
	if err != nil {
		return err
	}
	return renderReport(stdout, f, rep, sels, curve, allSel)
}
