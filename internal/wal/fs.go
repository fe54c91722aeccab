package wal

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the slice of the filesystem the log and the stream
// tier's checkpoint writer touch, so tests and the chaos harness can
// inject write/sync faults (ENOSPC, I/O errors) without patching the
// OS. The default, OSFS, is the real filesystem; internal/faultinject
// provides a fault-injecting wrapper.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	// Open opens a file read-only (segment scans, directory fsync).
	Open(name string) (File, error)
	// OpenFile is the general open used for appending and creating
	// segments; flag and perm follow os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
	Remove(name string) error
	// Rename atomically replaces newpath with oldpath, as os.Rename
	// does; shard checkpoints are written to a temporary file and
	// renamed into place.
	Rename(oldpath, newpath string) error
}

// File is the per-file surface the log needs from an FS.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
}

// OSFS is the real filesystem, the default when Options.FS is nil.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ProbeWrite checks that dir accepts durable writes by creating,
// writing, fsyncing and removing a scratch file. The degraded-shard
// re-arm loop uses it to decide whether reopening the log is worth
// attempting; a nil fs probes the real filesystem.
func ProbeWrite(fs FS, dir string) error {
	if fs == nil {
		fs = OSFS
	}
	path := filepath.Join(dir, ".probe")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("probe\n"))
	serr := f.Sync()
	cerr := f.Close()
	rerr := fs.Remove(path)
	for _, err := range []error{werr, serr, cerr, rerr} {
		if err != nil {
			return err
		}
	}
	return nil
}
