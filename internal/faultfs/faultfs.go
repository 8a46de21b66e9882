// Package faultfs is a deterministic fault injector behind the storage.FS
// seam: tests script exactly which filesystem operation fails, with which
// error, on which path, and whether the failure is one-shot or sticky —
// turning "what if the disk dies mid-fsync" from a thought experiment into
// a table-driven test. It also keeps per-op counters and open/close +
// mmap/munmap balances, so leak tests can prove a failed recovery released
// everything it touched.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"symmeter/internal/storage"
)

// Op identifies one filesystem operation class for fault matching and
// counting.
type Op int

const (
	OpOpen Op = iota // OpenFile and Open
	OpWrite
	OpWriteAt
	OpReadAt
	OpSync
	OpClose
	OpTruncate // File.Truncate and FS.Truncate
	OpRename
	OpRemove
	OpMkdir
	OpStat // File.Stat and FS.Stat
	OpReadFile
	OpReadDir
	OpMmap
	OpSyncDir
	opCount
)

func (o Op) String() string {
	names := [...]string{"open", "write", "writeat", "readat", "sync", "close",
		"truncate", "rename", "remove", "mkdir", "stat", "readfile", "readdir",
		"mmap", "syncdir"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Injection errors. Plain sentinels (no syscall dependency) — what matters
// to the engine is that they are non-nil I/O failures, not their errno.
var (
	// ErrIO models a medium error (EIO): the device lost the operation.
	ErrIO = errors.New("faultfs: injected I/O error")
	// ErrNoSpace models a full volume (ENOSPC).
	ErrNoSpace = errors.New("faultfs: injected no space left on device")
)

// Fault is one scripted failure. Matching: the fault applies to operations
// of its Op whose path contains Path (empty matches every path; Rename
// matches against "oldpath -> newpath"). The fault fires on its N'th match
// (1-based; 0 means 1), and — when Sticky — on every match after that, the
// dying-disk shape. Err defaults to ErrIO. Short makes a Write fault inject
// a short write: half the buffer is written before the error, leaving a
// torn record for recovery to handle.
type Fault struct {
	Op     Op
	Path   string
	N      int
	Err    error
	Short  bool
	Sticky bool

	hits int // matches so far (under FS.mu)
}

func (f *Fault) want() int {
	if f.N <= 0 {
		return 1
	}
	return f.N
}

// FS wraps a storage.FS with scripted faults. The zero value is unusable;
// use New. Faults can be swapped at runtime with SetFaults (arming a dying
// disk mid-test, disarming it to model recovery).
type FS struct {
	base storage.FS

	mu     sync.Mutex
	faults []*Fault
	counts [opCount]int
	ops    int // operations so far, every class
	// crashAt, when positive, is the operation number from which every
	// operation fails: CrashAfter's crash point.
	crashAt int

	opens   int
	closes  int
	mmaps   int
	munmaps int
}

// New builds a fault-injecting FS over the real filesystem.
func New(faults ...Fault) *FS {
	f := &FS{base: storage.OsFS{}}
	f.SetFaults(faults...)
	return f
}

// SetFaults replaces the fault schedule (hit counts start over) and disarms
// any CrashAfter.
func (f *FS) SetFaults(faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = 0
	f.faults = make([]*Fault, len(faults))
	for i := range faults {
		fc := faults[i]
		f.faults[i] = &fc
	}
}

// CrashAfter models the process dying after n more operations: every
// operation from the (n+1)'th on — of any class, on any path — fails with
// ErrIO, and if that first failing operation is a write it is torn (half
// its bytes land). Pair it with the engine's Abandon to leave exactly the
// directory a crash at that operation would, and with a loop over n to
// crash at every operation of a sequence in turn.
func (f *FS) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.ops + n + 1
}

// Ops returns the number of operations run so far, of every class.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Counts returns how many operations of each class have run (including
// ones that were failed by injection).
func (f *FS) Counts() map[Op]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := make(map[Op]int, opCount)
	for op, n := range f.counts {
		if n > 0 {
			m[Op(op)] = n
		}
	}
	return m
}

// OpenBalance returns successful opens minus closes — zero when every file
// handle was released.
func (f *FS) OpenBalance() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens - f.closes
}

// MmapBalance returns successful mmaps minus munmaps.
func (f *FS) MmapBalance() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mmaps - f.munmaps
}

// check counts the operation and reports whether a fault fires on it.
func (f *FS) check(op Op, path string) (short bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		return f.ops == f.crashAt, ErrIO
	}
	for _, ft := range f.faults {
		if ft.Op != op {
			continue
		}
		if ft.Path != "" && !strings.Contains(path, ft.Path) {
			continue
		}
		ft.hits++
		if ft.hits == ft.want() || (ft.Sticky && ft.hits > ft.want()) {
			e := ft.Err
			if e == nil {
				e = ErrIO
			}
			return ft.Short, e
		}
	}
	return false, nil
}

// file wraps a storage.File so per-file operations route through the
// injector.
type file struct {
	storage.File
	fs   *FS
	path string
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	if _, err := f.check(OpOpen, name); err != nil {
		return nil, err
	}
	g, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.opens++
	f.mu.Unlock()
	return &file{File: g, fs: f, path: name}, nil
}

func (f *FS) Open(name string) (storage.File, error) {
	if _, err := f.check(OpOpen, name); err != nil {
		return nil, err
	}
	g, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.opens++
	f.mu.Unlock()
	return &file{File: g, fs: f, path: name}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if _, err := f.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *FS) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.check(OpMkdir, path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *FS) Stat(name string) (os.FileInfo, error) {
	if _, err := f.check(OpStat, name); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, oldpath+" -> "+newpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if _, err := f.check(OpRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if _, err := f.check(OpTruncate, name); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *FS) Mmap(fl storage.File, length int) ([]byte, error) {
	w, ok := fl.(*file)
	if !ok {
		return nil, fmt.Errorf("faultfs: Mmap of a file not opened through this FS: %T", fl)
	}
	if _, err := f.check(OpMmap, w.path); err != nil {
		return nil, err
	}
	b, err := f.base.Mmap(w.File, length)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.mmaps++
	f.mu.Unlock()
	return b, nil
}

func (f *FS) Munmap(b []byte) error {
	f.mu.Lock()
	f.munmaps++
	f.mu.Unlock()
	return f.base.Munmap(b)
}

func (f *FS) SyncDir(dir string) error {
	if _, err := f.check(OpSyncDir, dir); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

func (fl *file) Write(p []byte) (int, error) {
	short, err := fl.fs.check(OpWrite, fl.path)
	if err != nil {
		if short && len(p) > 1 {
			// A torn write: half the buffer reaches the file before the
			// device dies — the shape recovery's torn-tail rule must absorb.
			n, werr := fl.File.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return fl.File.Write(p)
}

func (fl *file) WriteAt(p []byte, off int64) (int, error) {
	short, err := fl.fs.check(OpWriteAt, fl.path)
	if err != nil {
		if short && len(p) > 1 {
			n, werr := fl.File.WriteAt(p[:len(p)/2], off)
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return fl.File.WriteAt(p, off)
}

func (fl *file) ReadAt(p []byte, off int64) (int, error) {
	if _, err := fl.fs.check(OpReadAt, fl.path); err != nil {
		return 0, err
	}
	return fl.File.ReadAt(p, off)
}

func (fl *file) Sync() error {
	if _, err := fl.fs.check(OpSync, fl.path); err != nil {
		return err
	}
	return fl.File.Sync()
}

func (fl *file) Truncate(size int64) error {
	if _, err := fl.fs.check(OpTruncate, fl.path); err != nil {
		return err
	}
	return fl.File.Truncate(size)
}

func (fl *file) Stat() (os.FileInfo, error) {
	if _, err := fl.fs.check(OpStat, fl.path); err != nil {
		return nil, err
	}
	return fl.File.Stat()
}

func (fl *file) Close() error {
	if _, err := fl.fs.check(OpClose, fl.path); err != nil {
		// Even a failed close releases the descriptor on every platform the
		// engine targets; count it so balances stay meaningful.
		fl.fs.mu.Lock()
		fl.fs.closes++
		fl.fs.mu.Unlock()
		fl.File.Close()
		return err
	}
	fl.fs.mu.Lock()
	fl.fs.closes++
	fl.fs.mu.Unlock()
	return fl.File.Close()
}
