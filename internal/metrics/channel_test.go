package metrics

import (
	"strings"
	"testing"
)

func TestChannelStatsFormat(t *testing.T) {
	h := NewHistogram()
	h.Observe(120)
	h.Observe(340)
	s := ChannelStats{
		Connects: 3, Reconnects: 2, DialFailures: 1,
		BatchesSent: 50, BatchesAcked: 48, Retransmits: 4, DroppedBatches: 1,
		QueueDepth: 2, InflightDepth: 0, HighWater: 17,
		AckLatencyUs: h,
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
	// Nil histogram must not panic.
	_ = ChannelStats{}.Format()
}

func TestIngestStatsFormat(t *testing.T) {
	s := IngestStats{ConnsAccepted: 5, ConnsRejected: 1, AcceptRetries: 2,
		Frames: 100, FrameErrors: 3, Acks: 37, AckWriteErrors: 1}
	out := s.Format()
	for _, want := range []string{"ingest channel health", "conns accepted", "accept retries", "frames ingested", "100", "acks written", "37"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
