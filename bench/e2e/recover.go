package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
)

// recoverWorkload is the restart an operator waits for after a crash. It
// drives the store's write path differently from ingest: one goroutine,
// no network, no fsync — LoadSnapshot, then Replay → DecodePayload →
// Deliver. A store change that helps ingest by deferring index work to
// recovery shows here as a loss.
type recoverWorkload struct {
	batches []*fevent.Batch // kept only for the traced run's replays
	refDir  string          // pristine log: snapshot of the first half, tail of the second
	workDir string
	refLen  int
	refHash uint64

	store *collector.Store // the round's recovered store
	stats wal.ReplayStats

	tr struct{ openS, snapS, replayS, closeS, wallS []float64 }
}

func (w *recoverWorkload) name() string    { return "recover_wal" }
func (w *recoverWorkload) unit() string    { return "events recovered" }
func (w *recoverWorkload) op() string      { return "wal.Open + collector.RecoverStore + Close" }
func (w *recoverWorkload) baseRounds() int { return 18 }

// prepare writes the reference log once: every batch goes through the
// production frame encoder into the WAL and, decoded again, into a
// store; half way a checkpoint (CutSegment + InstallSnapshot) captures
// the store, so recovery has a snapshot to load and a tail to replay.
func (w *recoverWorkload) prepare(e *env) error {
	batches := genBatches(e.cfg.seed, e.sc.recoverEvents, e.sc.flows)
	w.refDir = filepath.Join(e.cfg.walDir, "recover-ref")
	w.workDir = filepath.Join(e.cfg.walDir, "recover-work")
	if err := os.RemoveAll(w.refDir); err != nil {
		return err
	}
	lg, err := wal.Open(w.refDir, wal.Options{})
	if err != nil {
		return err
	}
	st := collector.NewStore()
	var buf bytes.Buffer
	var decoded fevent.Batch
	for i, b := range batches {
		b.Seq = uint64(i + 1)
		payload, err := framePayload(&buf, b)
		if err == nil {
			_, err = lg.Append(payload, false)
		}
		if err == nil {
			err = collector.DecodePayload(payload, &decoded)
		}
		if err != nil {
			lg.Close()
			return err
		}
		st.Deliver(&decoded)
		if i == len(batches)/2 {
			cut, err := lg.CutSegment()
			if err == nil {
				err = lg.InstallSnapshot(cut, st.EncodeSnapshot())
			}
			if err != nil {
				lg.Close()
				return err
			}
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	w.refLen, w.refHash = st.Len(), storeDigest(st)
	if e.cfg.fault.flipDigest {
		w.refHash ^= 0xff
	}
	if e.cfg.trace {
		w.batches = batches
	}
	e.logf("  reference: %d events in %d batches, digest %016x, log %s", w.refLen, len(batches), w.refHash, w.refDir)
	return nil
}

// newRound restores the pristine log: a bare Open adds a segment per
// call, so recovering the same directory twice is not the same work.
func (w *recoverWorkload) newRound(e *env, r *round) error {
	if err := os.RemoveAll(w.workDir); err != nil {
		return err
	}
	return copyDir(w.refDir, w.workDir)
}

func (w *recoverWorkload) run(e *env, r *round) error {
	start := time.Now()
	var err error
	if r.traced {
		err = w.recoverTraced(e, r)
	} else {
		var lg *wal.WAL
		if lg, err = wal.Open(w.workDir, wal.Options{}); err == nil {
			w.store, w.stats, err = collector.RecoverStore(lg)
			if cerr := lg.Close(); err == nil {
				err = cerr
			}
		}
	}
	wall := time.Since(start)
	r.opsMs = append(r.opsMs, float64(wall)/1e6)
	e.led.op(err)
	if err != nil {
		return err
	}
	r.units = int64(w.store.Len())
	if r.traced {
		w.tr.wallS = append(w.tr.wallS, wall.Seconds())
	}
	return nil
}

// recoverTraced is collector.RecoverStore taken apart at its public
// seams, one span per step.
func (w *recoverWorkload) recoverTraced(e *env, r *round) error {
	var lg *wal.WAL
	d, err := e.tr.timed("wal.open", r.span, r.index, func() (err error) {
		lg, err = wal.Open(w.workDir, wal.Options{})
		return err
	})
	if err != nil {
		return err
	}
	w.tr.openS = append(w.tr.openS, d.Seconds())
	st := collector.NewStore()
	d, err = e.tr.timed("collector.recover.snapshot", r.span, r.index, func() error {
		if snap := lg.Snapshot(); snap != nil {
			return st.LoadSnapshot(snap)
		}
		return nil
	})
	w.tr.snapS = append(w.tr.snapS, d.Seconds())
	if err == nil {
		d, err = e.tr.timed("collector.recover.replay", r.span, r.index, func() (err error) {
			w.stats, err = lg.Replay(func(payload []byte) error {
				var b fevent.Batch
				if err := collector.DecodePayload(payload, &b); err != nil {
					return err
				}
				st.Deliver(&b)
				return nil
			})
			return err
		})
		w.tr.replayS = append(w.tr.replayS, d.Seconds())
	}
	d, cerr := e.tr.timed("wal.close", r.span, r.index, lg.Close)
	w.tr.closeS = append(w.tr.closeS, d.Seconds())
	if err == nil {
		err = cerr
	}
	w.store = st
	return err
}

func (w *recoverWorkload) check(e *env, r *round) {
	got := storeDigest(w.store)
	e.logf("           digest %016x", got)
	e.led.check(w.store.Len() == w.refLen && got == w.refHash,
		"recover_wal round %d: recovered %d events digest %016x, want %d events digest %016x", r.index, w.store.Len(), got, w.refLen, w.refHash)
	e.led.check(!w.stats.Truncated && len(w.stats.Gaps) == 0,
		"recover_wal round %d: replay truncated=%v (%s), gaps=%v", r.index, w.stats.Truncated, w.stats.TruncatedAt, w.stats.Gaps)
}

func (w *recoverWorkload) endRound(*env, *round, bool) error {
	w.store = nil
	return nil
}

func (w *recoverWorkload) finish(*env) error {
	err := os.RemoveAll(w.refDir)
	if rerr := os.RemoveAll(w.workDir); err == nil {
		err = rerr
	}
	return err
}

func (w *recoverWorkload) layers(e *env, u untraced, lv layerValues) error {
	t := &w.tr
	half := u.units / 2 // the snapshot holds the first half, the tail the second
	lv["collector.recover.snapshot_ns_per_event"] = median(t.snapS) * 1e9 / half
	lv["collector.recover.replay_ns_per_event"] = median(t.replayS) * 1e9 / half
	lv["trace.coverage"] = (median(t.openS) + median(t.snapS) + median(t.replayS) + median(t.closeS)) / u.roundWallS

	c, err := replayCollector(e, w.batches, filepath.Join(e.cfg.walDir, "recover-replay"))
	if err != nil {
		return err
	}
	c.fill(lv)
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			return fmt.Errorf("copyDir: %s is not a regular file", ent.Name())
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
