package faultinject

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"dynaddr/internal/wal"
)

// FaultFS is a wal.FS wrapper that injects write-path filesystem
// faults: ENOSPC after a byte budget, fsync failures, and segment
// creation failures. It is the disk-side counterpart of the HTTP
// Injector — the stream tier's degraded-mode handling (shard sheds
// with 503, background probe re-arms) is exercised against it, both in
// tests and via the atlasd -fault-wal-* flags.
//
// Reads are never faulted: recovery and replay see exactly what the
// failed writes left on disk, torn tails included. A write that
// exhausts the byte budget mid-call persists its allowed prefix before
// failing, the way a filling disk tears a frame.
//
// All methods are safe for concurrent use; Heal clears every armed
// fault at once (the -fault-wal-heal-after timer calls it).
type FaultFS struct {
	inner wal.FS

	mu        sync.Mutex // guards the error values
	writeErr  error
	syncErr   error
	createErr error

	writeArmed  atomic.Bool
	writeBudget atomic.Int64 // bytes remaining before writes fail
	syncArmed   atomic.Bool
	syncBudget  atomic.Int64 // successful syncs remaining
	createArmed atomic.Bool

	writesFailed  atomic.Uint64
	syncsFailed   atomic.Uint64
	createsFailed atomic.Uint64
}

// FSStats counts the faults a FaultFS has injected.
type FSStats struct {
	WriteFailures  uint64
	SyncFailures   uint64
	CreateFailures uint64
}

// NewFaultFS wraps inner (nil means the real filesystem) with no
// faults armed; arm them with FailWritesAfter and friends.
func NewFaultFS(inner wal.FS) *FaultFS {
	if inner == nil {
		inner = wal.OSFS
	}
	return &FaultFS{inner: inner}
}

// FailWritesAfter arms the disk-full fault: after n more bytes are
// written through the FS, every write fails with err (ENOSPC when err
// is nil) until Heal. The write crossing the budget persists its
// allowed prefix, leaving a torn frame for reopen to repair.
func (fs *FaultFS) FailWritesAfter(n int64, err error) {
	if err == nil {
		err = syscall.ENOSPC
	}
	fs.mu.Lock()
	fs.writeErr = err
	fs.mu.Unlock()
	fs.writeBudget.Store(n)
	fs.writeArmed.Store(true)
}

// FailSyncsAfter arms the fsync fault: after n more successful syncs,
// every file Sync fails with err (EIO when err is nil) until Heal.
func (fs *FaultFS) FailSyncsAfter(n int64, err error) {
	if err == nil {
		err = syscall.EIO
	}
	fs.mu.Lock()
	fs.syncErr = err
	fs.mu.Unlock()
	fs.syncBudget.Store(n)
	fs.syncArmed.Store(true)
}

// FailCreates arms the rotation fault: creating a file (O_CREATE)
// fails with err (ENOSPC when err is nil) until Heal. Appends to
// already-open segments are unaffected.
func (fs *FaultFS) FailCreates(err error) {
	if err == nil {
		err = syscall.ENOSPC
	}
	fs.mu.Lock()
	fs.createErr = err
	fs.mu.Unlock()
	fs.createArmed.Store(true)
}

// Heal clears every armed fault; subsequent writes succeed. Injected
// damage already on disk stays, exactly like a disk that got space
// back.
func (fs *FaultFS) Heal() {
	fs.writeArmed.Store(false)
	fs.syncArmed.Store(false)
	fs.createArmed.Store(false)
}

// Stats returns a snapshot of the injected-fault counters.
func (fs *FaultFS) Stats() FSStats {
	return FSStats{
		WriteFailures:  fs.writesFailed.Load(),
		SyncFailures:   fs.syncsFailed.Load(),
		CreateFailures: fs.createsFailed.Load(),
	}
}

func (fs *FaultFS) getWriteErr() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeErr
}

func (fs *FaultFS) getSyncErr() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncErr
}

func (fs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return fs.inner.MkdirAll(path, perm)
}

func (fs *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return fs.inner.ReadDir(name) }

// Open is the read path (segment scans, directory fsync) and is never
// faulted.
func (fs *FaultFS) Open(name string) (wal.File, error) { return fs.inner.Open(name) }

func (fs *FaultFS) Stat(name string) (os.FileInfo, error)  { return fs.inner.Stat(name) }
func (fs *FaultFS) Truncate(name string, size int64) error { return fs.inner.Truncate(name, size) }
func (fs *FaultFS) Remove(name string) error               { return fs.inner.Remove(name) }

// Rename is never faulted: a checkpoint's temporary file fails at its
// create, write or sync, and the rename that would publish it is then
// never reached.
func (fs *FaultFS) Rename(oldpath, newpath string) error { return fs.inner.Rename(oldpath, newpath) }

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if flag&os.O_CREATE != 0 && fs.createArmed.Load() {
		fs.createsFailed.Add(1)
		fs.mu.Lock()
		err := fs.createErr
		fs.mu.Unlock()
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

// faultFile routes writes and syncs through the parent's fault state.
type faultFile struct {
	wal.File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.fs.writeArmed.Load() {
		return f.File.Write(p)
	}
	remaining := f.fs.writeBudget.Add(-int64(len(p)))
	if remaining >= 0 {
		return f.File.Write(p)
	}
	// Budget exhausted mid-write: persist the prefix that still fit,
	// then report the failure — a torn tail, like a real full disk.
	f.fs.writesFailed.Add(1)
	allowed := int64(len(p)) + remaining
	if allowed < 0 {
		allowed = 0
	}
	n := 0
	if allowed > 0 {
		n, _ = f.File.Write(p[:allowed])
	}
	return n, f.fs.getWriteErr()
}

func (f *faultFile) Sync() error {
	if !f.fs.syncArmed.Load() {
		return f.File.Sync()
	}
	if f.fs.syncBudget.Add(-1) >= 0 {
		return f.File.Sync()
	}
	f.fs.syncsFailed.Add(1)
	return f.fs.getSyncErr()
}
