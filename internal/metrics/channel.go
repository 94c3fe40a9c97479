package metrics

import (
	"fmt"

	"netseer/internal/obs"
)

// ChannelStats is a point-in-time snapshot of the client side of the
// reliable switch-CPU→collector channel (collector.Client.Stats). The
// live counters are atomic obs instruments on the client itself — also
// exposed on /metrics via Client.RegisterMetrics — and this struct is the
// offline copy their loads produce, kept for report formatting.
type ChannelStats struct {
	// Connects counts successful dials; Reconnects is the subset after
	// the first; DialFailures counts failed attempts.
	Connects, Reconnects, DialFailures uint64
	// BatchesSent counts frames written (including retransmits);
	// BatchesAcked counts batches covered by cumulative acks;
	// Retransmits counts frames rewritten after a connection drop.
	BatchesSent, BatchesAcked, Retransmits uint64
	// DroppedBatches counts overflow drops at the bounded queue and
	// batches too large for any frame — the only places the channel is
	// allowed to lose data, and they are counted.
	DroppedBatches uint64
	// Failovers counts switches to a different collector endpoint;
	// Promotions counts returns to the primary once its probe succeeds
	// (both 0 for a single-endpoint client).
	Failovers, Promotions uint64
	// QueueDepth/InflightDepth are the current backlog; HighWater is the
	// maximum queue+inflight ever observed.
	QueueDepth, InflightDepth, HighWater int
	// AckLatencyUs aggregates microseconds from a batch's last write to
	// the ack that covered it: a snapshot of the histogram /metrics
	// exposes.
	AckLatencyUs obs.HistogramSnapshot
}

// Format renders the snapshot as an aligned two-column table.
func (s ChannelStats) Format() string {
	t := NewTable("delivery channel health", "metric", "value")
	t.AddRow("connects", fmt.Sprint(s.Connects))
	t.AddRow("reconnects", fmt.Sprint(s.Reconnects))
	t.AddRow("dial failures", fmt.Sprint(s.DialFailures))
	t.AddRow("batches sent", fmt.Sprint(s.BatchesSent))
	t.AddRow("batches acked", fmt.Sprint(s.BatchesAcked))
	t.AddRow("retransmits", fmt.Sprint(s.Retransmits))
	t.AddRow("dropped (overflow)", fmt.Sprint(s.DroppedBatches))
	if s.Failovers > 0 || s.Promotions > 0 {
		t.AddRow("endpoint failovers", fmt.Sprint(s.Failovers))
		t.AddRow("primary promotions", fmt.Sprint(s.Promotions))
	}
	t.AddRow("backlog depth", fmt.Sprintf("%d queued + %d inflight", s.QueueDepth, s.InflightDepth))
	t.AddRow("backlog high-water", fmt.Sprint(s.HighWater))
	t.AddRow("ack latency (µs)", s.AckLatencyUs.String())
	return t.String()
}

// IngestStats is the server side of the channel (collector.Server.Stats):
// like ChannelStats, a snapshot of the server's atomic obs instruments.
type IngestStats struct {
	// ConnsAccepted/ConnsRejected count accepted connections and ones
	// closed for exceeding the concurrent-connection cap; AcceptRetries
	// counts transient Accept errors survived.
	ConnsAccepted, ConnsRejected, AcceptRetries uint64
	// Frames counts batch frames accepted for an ack, each of them
	// stored, deduplicated or shed to the log (TestIngestFramesConserve);
	// FrameErrors counts connections dropped on a malformed/corrupt/
	// timed-out frame; Acks counts cumulative-ack frames written (Frames/Acks is how many
	// frames one ack covers); AckWriteErrors counts connections dropped
	// writing an ack.
	Frames, FrameErrors, Acks, AckWriteErrors uint64
}
