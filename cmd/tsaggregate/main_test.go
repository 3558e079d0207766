package main

import (
	"strings"
	"testing"
)

const sample = `# chain
a b 10
b c 20
c d 30
a b 4000
`

func TestAggregateStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-delta", "100"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"windows (total)", "mean density", "mean largest component"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestAggregateDump(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-delta", "100", "-dump"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# window 0") {
		t.Fatalf("missing window header:\n%s", s)
	}
	if !strings.Contains(s, "a b") || !strings.Contains(s, "c d") {
		t.Fatalf("missing edges:\n%s", s)
	}
	// The event at t=4000 lands in window 39 with origin 10.
	if !strings.Contains(s, "# window 39") {
		t.Fatalf("missing late window:\n%s", s)
	}
}

func TestAggregateTrips(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-delta", "15", "-trips"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "minimal trips:") {
		t.Fatalf("missing trip stats:\n%s", out.String())
	}
}

func TestAggregateErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-delta", "0"}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("delta 0 should error")
	}
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Fatal("empty stream should error")
	}
	if err := run([]string{"-in", "/nonexistent"}, nil, &out); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestAggregateMetrics(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-delta", "100", "-metrics", "degree,weighted",
		"-workers", "2", "-max-inflight", "1", "-engine-stats"},
		strings.NewReader(sample), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"snapshot metric degree", "mean_degree", "degree_entropy",
		"snapshot metric weighted", "mean_weight", "stability",
		"engine:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "snapshot metric clustering") {
		t.Fatalf("unrequested metric appeared:\n%s", s)
	}
}

func TestAggregateMetricsRejectsSweepMetrics(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-delta", "100", "-metrics", "occupancy"}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("sweep metric accepted")
	} else if !strings.Contains(err.Error(), "tsscale") {
		t.Fatalf("error %q does not point at the sweeping commands", err)
	}
	if err := run([]string{"-delta", "100", "-metrics", "vibes"}, strings.NewReader(sample), &out); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
