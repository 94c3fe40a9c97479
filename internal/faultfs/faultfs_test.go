package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeAll(t *testing.T, f File, p []byte) {
	t.Helper()
	if n, err := f.Write(p); err != nil || n != len(p) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "d")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	path := filepath.Join(sub, "a")
	f, err := OS.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeAll(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OS.Create(path); err == nil {
		t.Fatalf("Create on existing file must fail (O_EXCL)")
	}
	if err := OS.SyncDir(sub); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := OS.Truncate(path, 4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	r, err := OS.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := r.Read(buf)
	r.Close()
	if string(buf[:n]) != "hell" {
		t.Fatalf("read back %q, want %q", buf[:n], "hell")
	}
	if err := OS.Rename(path, path+"2"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	ents, err := OS.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "a2" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	tf, err := OS.CreateTrunc(path + "2")
	if err != nil {
		t.Fatalf("CreateTrunc: %v", err)
	}
	tf.Close()
	if b := readFile(t, path+"2"); len(b) != 0 {
		t.Fatalf("CreateTrunc left %d bytes", len(b))
	}
	if err := OS.Remove(path + "2"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OS.Open(path + "2"); !os.IsNotExist(err) {
		t.Fatalf("Open after Remove: %v", err)
	}
}

func TestWriteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1, WriteBudget: 10})
	path := filepath.Join(dir, "a")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeAll(t, f, []byte("12345678"))  // 8 of 10
	n, err := f.Write([]byte("abcdef")) // crosses the budget
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if n != 2 {
		t.Fatalf("short write persisted %d bytes, want 2", n)
	}
	if n, err := f.Write([]byte("x")); n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-budget write: n=%d err=%v", n, err)
	}
	if got := readFile(t, path); string(got) != "12345678ab" {
		t.Fatalf("on-disk %q, want %q", got, "12345678ab")
	}
	if st := fs.Stats(); st.BytesWritten != 10 {
		t.Fatalf("BytesWritten=%d, want 10", st.BytesWritten)
	}
}

func TestFailSyncAtDropsUnsyncedAndStaysDropped(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1, FailSyncAt: 2, DropOnSyncFail: true})
	path := filepath.Join(dir, "a")
	f, _ := fs.Create(path)
	writeAll(t, f, []byte("durable|"))
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	writeAll(t, f, []byte("doomed"))
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second sync: want EIO, got %v", err)
	}
	// The kernel dropped the dirty pages: the suffix is gone...
	if got := readFile(t, path); string(got) != "durable|" {
		t.Fatalf("after failed sync: %q, want %q", got, "durable|")
	}
	// ...and a later, "successful" fsync must not resurrect it — the
	// fsyncgate trap a fail-stop caller never hits.
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync: %v", err)
	}
	if got := readFile(t, path); string(got) != "durable|" {
		t.Fatalf("after retried sync: %q, want %q", got, "durable|")
	}
	if st := fs.Stats(); st.Syncs != 3 {
		t.Fatalf("Syncs=%d, want 3", st.Syncs)
	}
}

func TestTornWriteDeterministic(t *testing.T) {
	tear := func(seed int64) (int, error) {
		dir := t.TempDir()
		fs := NewFault(OS, Plan{Seed: seed, TornWriteAt: 2})
		f, _ := fs.Create(filepath.Join(dir, "a"))
		writeAll(t, f, []byte("first"))
		n, err := f.Write([]byte("0123456789"))
		return n, err
	}
	n1, err1 := tear(7)
	n2, err2 := tear(7)
	if !errors.Is(err1, syscall.EIO) || !errors.Is(err2, syscall.EIO) {
		t.Fatalf("want EIO on torn write, got %v / %v", err1, err2)
	}
	if n1 != n2 {
		t.Fatalf("same seed, different tears: %d vs %d", n1, n2)
	}
	if n1 < 0 || n1 >= 10 {
		t.Fatalf("tear must be a strict prefix, got %d of 10", n1)
	}
}

func TestPowerCutDropsUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1})
	path := filepath.Join(dir, "a")
	f, _ := fs.Create(path)
	writeAll(t, f, []byte("synced"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	fs.SyncDir(dir)
	writeAll(t, f, []byte("-unsynced"))
	fs.PowerCut()
	if got := readFile(t, path); string(got) != "synced" {
		t.Fatalf("after power cut: %q, want %q", got, "synced")
	}
	// The machine is off: everything fails.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("sync after cut: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("close after cut: %v", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "b")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("create after cut: %v", err)
	}
	if _, err := fs.Open(path); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("open after cut: %v", err)
	}
	if _, err := fs.ReadDir(dir); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("readdir after cut: %v", err)
	}
	if err := fs.Rename(path, path+"2"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("rename after cut: %v", err)
	}
	if err := fs.Remove(path); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("remove after cut: %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("syncdir after cut: %v", err)
	}
	fs.PowerCut() // idempotent
	if !fs.Stats().Halted {
		t.Fatalf("Stats.Halted false after PowerCut")
	}
}

func TestPowerCutUndoesPendingDirOps(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1})

	// durable: created, written, fsynced, dir-fsynced.
	durable := filepath.Join(dir, "durable")
	f, _ := fs.Create(durable)
	writeAll(t, f, []byte("keep"))
	f.Sync()
	f.Close()
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("syncdir: %v", err)
	}

	victim := filepath.Join(dir, "victim")
	vf, _ := fs.Create(victim)
	writeAll(t, vf, []byte("back"))
	vf.Sync()
	vf.Close()
	if err := fs.SyncDir(dir); err != nil { // victim durable too
		t.Fatalf("syncdir: %v", err)
	}

	// pending create: never dir-fsynced — a power cut unlinks it.
	limbo := filepath.Join(dir, "limbo")
	lf, _ := fs.Create(limbo)
	writeAll(t, lf, []byte("gone"))
	lf.Sync() // file fsync alone does not persist the directory entry
	lf.Close()

	// pending rename: reverts to the old name.
	if err := fs.Rename(durable, durable+".new"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	// pending remove: the file comes back.
	if err := fs.Remove(victim); err != nil {
		t.Fatalf("remove: %v", err)
	}
	// Removed-but-not-dir-synced files are hidden from ReadDir...
	ents, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range ents {
		if e.Name() == "victim" || e.Name() != filepath.Base(e.Name()) {
			t.Fatalf("removed file still listed: %v", e.Name())
		}
	}

	fs.PowerCut()

	if _, err := os.Stat(limbo); !os.IsNotExist(err) {
		t.Fatalf("pending create survived the cut: %v", err)
	}
	if _, err := os.Stat(durable + ".new"); !os.IsNotExist(err) {
		t.Fatalf("pending rename survived the cut")
	}
	if got := readFile(t, durable); string(got) != "keep" {
		t.Fatalf("reverted rename content %q", got)
	}
	if got := readFile(t, victim); string(got) != "back" {
		t.Fatalf("pending remove not undone: %q", got)
	}
}

func TestSyncDirRetiresRemovals(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1})
	path := filepath.Join(dir, "a")
	f, _ := fs.Create(path)
	f.Sync()
	f.Close()
	fs.SyncDir(dir)
	if err := fs.Remove(path); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("os.ReadDir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("dir not empty after durable remove: %v", ents)
	}
	// Now durable: a power cut must NOT resurrect it.
	fs.PowerCut()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("durably removed file came back: %v", err)
	}
}

func TestPowerCutTearKeepsPartialSuffix(t *testing.T) {
	run := func(seed int64) int64 {
		dir := t.TempDir()
		fs := NewFault(OS, Plan{Seed: seed, TearOnPowerCut: true})
		path := filepath.Join(dir, "a")
		f, _ := fs.Create(path)
		writeAll(t, f, []byte("0123"))
		f.Sync()
		fs.SyncDir(dir)
		writeAll(t, f, []byte("456789abcdef"))
		fs.PowerCut()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		return info.Size()
	}
	s1, s2 := run(42), run(42)
	if s1 != s2 {
		t.Fatalf("same seed, different tear: %d vs %d", s1, s2)
	}
	if s1 < 4 || s1 > 16 {
		t.Fatalf("tear outside [durable, written]: %d", s1)
	}
}

func TestFaultTruncateTracksState(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(OS, Plan{Seed: 1})
	path := filepath.Join(dir, "a")
	f, _ := fs.Create(path)
	writeAll(t, f, []byte("0123456789"))
	f.Sync()
	fs.SyncDir(dir)
	if err := fs.Truncate(path, 4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	writeAll(t, f, []byte("zz")) // durable mark stays at the truncation point
	fs.PowerCut()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if info.Size() != 4 {
		t.Fatalf("power cut kept %d bytes, want the 4 durable ones", info.Size())
	}
}

func TestFlipByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := FlipByte(path, 2); err != nil {
		t.Fatalf("flip: %v", err)
	}
	got := readFile(t, path)
	if got[2] == 'c' {
		t.Fatalf("byte 2 not flipped")
	}
	if err := FlipByte(path, 2); err != nil { // involution
		t.Fatalf("flip back: %v", err)
	}
	if string(readFile(t, path)) != "abcdef" {
		t.Fatalf("double flip is not identity: %q", readFile(t, path))
	}
	if err := FlipByte(path, -1); err != nil {
		t.Fatalf("flip last: %v", err)
	}
	if got := readFile(t, path); got[5] == 'f' {
		t.Fatalf("negative offset did not hit last byte: %q", got)
	}
	if err := FlipByte(filepath.Join(dir, "missing"), 0); !os.IsNotExist(err) {
		t.Fatalf("flip missing: %v", err)
	}
}

// TestReplaceFile: a replace that returns nil survives a power cut whole,
// and one that fails on the way leaves the old contents and no tmp file.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := ReplaceFile(OS, path, []byte("old")); err != nil {
		t.Fatalf("first replace: %v", err)
	}
	for _, plan := range []Plan{{FailSyncAt: 1}, {TornWriteAt: 1}, {WriteBudget: 1}} {
		fs := NewFault(OS, plan)
		if err := ReplaceFile(fs, path, []byte("new")); err == nil {
			t.Fatalf("%+v: replace succeeded", plan)
		}
		if got := readFile(t, path); string(got) != "old" {
			t.Fatalf("%+v: contents %q after a failed replace", plan, got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%+v: tmp file left behind: %v", plan, err)
		}
	}
	fs := NewFault(OS, Plan{})
	if err := ReplaceFile(fs, path, []byte("new")); err != nil {
		t.Fatalf("replace: %v", err)
	}
	fs.PowerCut()
	if got := readFile(t, path); string(got) != "new" {
		t.Fatalf("contents %q after a power cut, want the acknowledged replace", got)
	}
	if err := ReplaceFile(fs, path, []byte("dead")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("replace on a halted disk: %v", err)
	}
}
