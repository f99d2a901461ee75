package wal

import (
	"io"
	"os"
	"strings"
)

// FS is the filesystem seam the segmented log runs on. Production code uses
// the OS implementation returned by OSFS; tests and the fault-injection
// harness substitute wrappers that script write errors, short writes, and
// crashes at exact byte boundaries. Only the operations the log actually
// performs are abstracted.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so renames and creates within it are
	// durable. Platforms where directories cannot be synced get a pass
	// (best effort, as in most Go WAL implementations).
	SyncDir(dir string) error
}

// File is the subset of *os.File the log needs from an open segment.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

type osFS struct{}

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (os.IsPermission(err) || strings.Contains(err.Error(), "invalid argument")) {
		return nil
	}
	return err
}
