package metrics

import (
	"strings"
	"testing"

	"netseer/internal/obs"
)

func TestChannelStatsFormat(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyBuckets())
	h.Observe(120)
	h.Observe(340)
	s := ChannelStats{
		Connects: 3, Reconnects: 2, DialFailures: 1,
		BatchesSent: 50, BatchesAcked: 48, Retransmits: 4, DroppedBatches: 1,
		QueueDepth: 2, InflightDepth: 0, HighWater: 17,
		AckLatencyUs: h.Snapshot(),
	}
	out := s.Format()
	for _, want := range []string{
		"delivery channel health", "reconnects", "2",
		"retransmits", "4", "dropped (overflow)",
		"2 queued + 0 inflight", "backlog high-water", "17", "n=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// The zero snapshot (no ack yet) formats as an empty histogram.
	if out := (ChannelStats{}).Format(); !strings.Contains(out, "empty") {
		t.Errorf("zero ChannelStats Format():\n%s", out)
	}
}
