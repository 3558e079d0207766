package serve

import (
	"testing"

	"repro"
	"repro/internal/synth"
)

// inlineBody returns a submit envelope shaped like the largest inline
// template of perfbench's serve-mix workload, and its events: a
// 10k-event message network over 200 nodes, every node name prefixed
// with a fixed-width variant tag, under a snapshot-metric spec.
func inlineBody(b *testing.B) ([]byte, []repro.InlineEvent) {
	b.Helper()
	s, err := synth.MessageNetwork(synth.MessageConfig{
		Nodes: 200, Days: 10000 / 200, MsgsPerPersonDay: 1, Seed: 31 + 3,
		ActivityExponent: 0.9, Reciprocity: 0.35, PartnerAffinity: 0.6,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := make([]repro.InlineEvent, 0, s.NumEvents())
	for _, e := range s.Events() {
		events = append(events, repro.InlineEvent{U: "v000." + s.NodeName(e.U), V: "v000." + s.NodeName(e.V), T: e.T})
	}
	body, err := EncodePlan(&repro.PlanSpec{Metrics: []string{"degree", "weighted"}, GridPoints: 8, Inline: events})
	if err != nil {
		b.Fatal(err)
	}
	return body, events
}

func BenchmarkDecodePlanInline(b *testing.B) {
	body, events := inlineBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := DecodePlan(body)
		if err != nil {
			b.Fatal(err)
		}
		if len(spec.Inline) != len(events) {
			b.Fatalf("decoded %d events, want %d", len(spec.Inline), len(events))
		}
	}
}

// hashSink keeps the benchmarked InlineHash calls from being optimised
// away.
var hashSink string

func BenchmarkInlineHash(b *testing.B) {
	_, events := inlineBody(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = InlineHash(events)
	}
}
