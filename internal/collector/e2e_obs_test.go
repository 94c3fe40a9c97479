package collector

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/obs"
)

// TestMetricsEndToEnd wires a registry exactly as cmd/netseerd does —
// runtime gauges, store, ingest server, query server — drives real
// batches through a TCP client, then scrapes /metrics over HTTP and
// asserts the exposition is valid and carries the canonical series an
// operator dashboards against. Run under -race this
// also exercises scraping concurrently with live ingestion.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	store := NewStore()
	store.RegisterMetrics(reg)
	ingest, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()
	ingest.RegisterMetrics(reg)
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	qs.RegisterMetrics(reg)
	osrv, err := obs.ServeHTTP(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer osrv.Close()

	client := NewClientConfig(ingest.Addr(), ClientConfig{})
	client.RegisterMetrics(reg)
	for i := 0; i < 20; i++ {
		client.Deliver(batchOf(uint16(1+i%3), 5000,
			fevent.Event{Type: fevent.TypeDrop, Flow: flowN(uint32(i)), DropCode: fevent.DropNoRoute,
				SwitchID: uint16(1 + i%3), Timestamp: 1000},
			fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(uint32(i)),
				SwitchID: uint16(1 + i%3), Timestamp: 2000},
		))
	}
	// Scrape while delivery is in flight: under -race this catches any
	// instrument read racing an ingest write.
	if _, err := scrape(t, osrv.Addr()); err != nil {
		t.Fatalf("concurrent scrape: %v", err)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	waitFor(t, func() bool { return store.Len() == 40 })
	body, err := scrape(t, osrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v", err)
	}
	text := string(body)
	// The acceptance surface: switch-side series (zero samples here —
	// netseerd does not run the switch pipeline), channel health,
	// collector-side ingest lag and the end-to-end latency histogram.
	for _, want := range []string{
		obs.MGroupEvictions,
		obs.MChanRetransmits,
		obs.MIngestLag + "_bucket",
		obs.MDetectToStore + "_bucket",
		obs.MDetectToCPU + "_bucket",
		"go_goroutines",
		obs.MStoreEvents + `{switch="1",type="drop"} `,
		obs.MChanAckedBatches + " 20",
		obs.MIngestFrames + " 20",
		obs.MStoreFlows + " 20",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Latency histograms must have observed the deliveries.
	if strings.Contains(text, obs.MDetectToStore+"_count 0") {
		t.Error("detect-to-store histogram empty after 40 stored events")
	}
	if strings.Contains(text, obs.MIngestLag+"_count 0") {
		t.Error("ingest-lag histogram empty after 20 frames")
	}

	// /healthz answers.
	resp, err := http.Get("http://" + osrv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}

	// The stats verb serves the same registry over the query port.
	lines := queryLine(t, qs.Addr(), "stats")
	joined := strings.Join(lines, "\n") + "\n"
	if err := obs.ValidateExposition([]byte(joined)); err != nil {
		t.Fatalf("stats verb exposition invalid: %v", err)
	}
	if !strings.Contains(joined, obs.MIngestFrames+" 20") {
		t.Error("stats verb missing ingest frame count")
	}

	// The coalescing factor is readable from the exposition — here as
	// fetquery stats prints it, below from /metrics: acks never outnumber
	// frames, and two frames that share a write share an ack.
	frames, acks := counterValue(t, joined, obs.MIngestFrames), counterValue(t, joined, obs.MIngestAcks)
	if acks < 1 || acks > frames {
		t.Errorf("%s = %d with %d frames ingested", obs.MIngestAcks, acks, frames)
	}
	raw, err := newRawConn(ingest.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	writeBurst(t, raw, 9, []uint64{1, 2})
	readAcksThrough(t, raw, 2)
	waitFor(t, func() bool { return ingest.Stats().Acks > uint64(acks) })
	if body, err = scrape(t, osrv.Addr()); err != nil {
		t.Fatal(err)
	}
	if f, a := counterValue(t, string(body), obs.MIngestFrames), counterValue(t, string(body), obs.MIngestAcks); f != frames+2 || a != acks+1 {
		t.Errorf("two frames in one write moved frames %d → %d and acks %d → %d, want +2 and +1", frames, f, acks, a)
	}
}

// TestStoreEventsFallAtAFence: netseer_store_events counts resident
// events, so an epoch fence (RemoveImage) lowers it — a gauge, never a
// counter.
func TestStoreEventsFallAtAFence(t *testing.T) {
	st := NewStore()
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	var evs []fevent.Event
	for i := 0; i < 6; i++ {
		evs = append(evs, fevent.Event{Type: fevent.TypeDrop, Flow: flowN(uint32(i)),
			DropCode: fevent.DropNoRoute, SwitchID: 1, Timestamp: 1000})
	}
	st.Deliver(batchOf(1, 1000, evs...))
	sample := obs.MStoreEvents + `{switch="1",type="drop"}`
	if got := regValue(t, reg, sample); got != "6" {
		t.Fatalf("%s = %s before the fence, want 6", sample, got)
	}
	if n := removeEvents(t, st, evs[:4]); n != 4 {
		t.Fatalf("RemoveImage removed %d, want 4", n)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE " + obs.MStoreEvents + " gauge\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
	if got := regValue(t, reg, sample); got != "2" {
		t.Fatalf("%s = %s after fencing 4 of 6, want 2", sample, got)
	}
}

// counterValue returns the value of the unlabelled counter name in an
// exposition.
func counterValue(t *testing.T, text, name string) int {
	t.Helper()
	_, rest, ok := strings.Cut(text, "\n"+name+" ")
	if !ok {
		t.Fatalf("/metrics has no %s sample", name)
	}
	line, _, _ := strings.Cut(rest, "\n")
	v, err := strconv.Atoi(line)
	if err != nil {
		t.Fatalf("%s sample %q: %v", name, line, err)
	}
	return v
}

func scrape(t *testing.T, addr string) ([]byte, error) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
