package wal

import (
	"io/fs"
	"os"
)

// FS is the filesystem seam every durable-path file operation goes
// through: log segment appends, checkpoint temp/rename dances, recovery
// reads, directory fsyncs. Production code uses the process filesystem
// (osFS, the nil default everywhere an FS is accepted); tests substitute
// a FaultFS that injects short writes, fsync errors, ENOSPC, torn renames
// and open failures at chosen points. Keeping the seam this small — seven
// calls, one file handle — is what makes the fault matrix tractable: every
// way the storage stack can betray us is one of these calls returning an
// error or doing partial work.
type FS interface {
	// OpenFile opens path like os.OpenFile. Opening a directory read-only
	// (for syncDir) must work as it does for the OS.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new unique temp file in dir like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
}

// File is the open-file surface the WAL needs.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (fs.FileInfo, error)
	Name() string
}

// osFS is the production FS: the process filesystem, verbatim.
type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

// realFS resolves the nil-means-OS convention in one place.
func realFS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

// syncDir fsyncs a directory so a just-renamed or just-created file
// survives a machine crash.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
