// Package faultfs is the storage-side twin of internal/faultconn: a
// minimal VFS over the handful of filesystem operations the collector's
// durability path performs (file create/write/sync/rename/remove plus
// directory fsync), with an os-backed passthrough default and a seeded,
// deterministic fault engine that scripts the disk failures that
// actually kill collectors in production — ENOSPC mid-ingest, EIO on
// the k-th fsync, short/torn writes, power cuts that drop un-fsynced
// bytes, and latent bit rot in sealed segments.
//
// The interface is deliberately tiny: it covers exactly what the WAL
// needs and nothing more, so the os-backed default adds no measurable
// overhead (one interface dispatch in front of a syscall) and the fault
// engine can model durability precisely. Injected errors wrap
// syscall.ENOSPC / syscall.EIO inside *os.PathError, so callers'
// errors.Is / os.IsNotExist classification behaves exactly as it would
// against a real dying disk.
package faultfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the writable-file surface the WAL uses: sequential reads or
// writes plus fsync. *os.File satisfies it directly.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's dirty bytes to stable storage. After a
	// Sync error the caller must assume the un-synced suffix is gone —
	// the kernel may have dropped the dirty pages — and fail stop; a
	// retried Sync that returns nil is NOT a durability promise.
	Sync() error
}

// FS is the filesystem surface the durability path runs on. Implementors
// must keep os semantics: Create is O_CREATE|O_EXCL|O_WRONLY (fails if
// the file exists), CreateTrunc is O_CREATE|O_TRUNC|O_WRONLY, Open is
// read-only, and SyncDir fsyncs a directory so creations, renames, and
// removals inside it survive a power cut.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	// Create creates a new file exclusively (the WAL's fresh-segment
	// open: an existing file is an error, never silently appended to).
	Create(path string) (File, error)
	// CreateTrunc creates or truncates a file (the snapshot tmp open).
	CreateTrunc(path string) (File, error)
	// Open opens an existing file for reading.
	Open(path string) (File, error)
	Rename(from, to string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself, making the directory
	// operations performed so far durable.
	SyncDir(dir string) error
}

// OS is the passthrough filesystem used in production: every method is
// a direct os call and File is a bare *os.File.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTrunc(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReplaceFile replaces the file at path with data on fs so that a crash
// leaves the old contents or the new, whole, and a nil return means the
// new survive one: it writes and fsyncs path+".tmp", renames it over
// path, then fsyncs the directory. A failure before the rename removes
// the tmp file.
func ReplaceFile(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.CreateTrunc(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// ReadFile reads the whole file at path on fs, as os.ReadFile does.
func ReadFile(fs FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
