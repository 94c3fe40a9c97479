package main

import (
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/experiments"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// TestExportKeepsEverySwitchAndStamp: a run exported to a collector is
// stored there as the run stored it — every event under its own switch
// and stamp.
func TestExportKeepsEverySwitchAndStamp(t *testing.T) {
	dist, _ := workload.ByName("WEB")
	tb := experiments.NewTestbed(experiments.RunConfig{Dist: dist, Load: 0.7,
		Window: sim.Time((5 * time.Millisecond).Nanoseconds()), Seed: 1, NetSeer: true})
	tb.Run()
	store := collector.NewStore()
	srv, err := collector.NewServerConfig(store, "127.0.0.1:0", collector.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := collector.NewClientConfig(srv.Addr(), collector.ClientConfig{MaxQueue: exportWindow})
	defer client.Close()

	n, err := export(client, tb.Store)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != tb.Store.Len() || store.Len() != n {
		t.Fatalf("exported %d of the run's %d events; the collector stored %d", n, tb.Store.Len(), store.Len())
	}
	if got, want := experiments.CanonicalDigest(store), experiments.CanonicalDigest(tb.Store); got != want {
		t.Fatalf("the collector's digest %016x is not the run's %016x", got, want)
	}
}
