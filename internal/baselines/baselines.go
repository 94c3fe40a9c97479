// Package baselines implements the four comparison monitoring systems of
// the paper's evaluation (§5): 1:N packet sampling, Pingmesh active
// probing, EverFlow (SYN/FIN mirroring + on-demand per-flow telemetry),
// and NetSight (per-packet postcards).
//
// Sampling, EverFlow and NetSight record what they could *detect with
// flow attribution* as a set of dataplane.FlowEventKey values, plus the
// monitoring bytes they shipped, so the experiments can compute the
// coverage (Fig. 9–10) and overhead (Fig. 11) comparisons against the
// ground-truth ledger. Pingmesh probes carry no application-flow
// identity: it keeps its slow and lost probes, which Fig. 10 credits by
// existence only.
package baselines

import (
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// Detections is a set of flow events a monitoring system claimed.
type Detections map[dataplane.FlowEventKey]bool

// add records a detection.
func (d Detections) add(sw uint16, t fevent.Type, flow pkt.FlowKey, code fevent.DropCode) {
	d[dataplane.FlowEventKey{SwitchID: sw, Type: t, Flow: flow, Code: code}] = true
}

// addPath records a port-qualified path observation.
func (d Detections) addPath(sw uint16, flow pkt.FlowKey, in, out uint8) {
	d[dataplane.FlowEventKey{SwitchID: sw, Type: fevent.TypePathChange, Flow: flow, In: in, Out: out}] = true
}

// MirrorTruncation is the mirror copy size used by EverFlow and NetSight
// in the testbed configuration ("all mirrored packets are truncated to 64
// bytes").
const MirrorTruncation = 64
