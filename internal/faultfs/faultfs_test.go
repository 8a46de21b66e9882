package faultfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"symmeter/internal/faultfs"
)

func writeOnce(t *testing.T, fs *faultfs.FS, path string, p []byte) error {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(p)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func TestFaultFiresOnNthMatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.dat")
	fs := faultfs.New(faultfs.Fault{Op: faultfs.OpWrite, Path: "x.dat", N: 2})

	if err := writeOnce(t, fs, path, []byte("one")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := writeOnce(t, fs, path, []byte("two")); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("second write: got %v, want ErrIO", err)
	}
	// One-shot: the third matching write goes through.
	if err := writeOnce(t, fs, path, []byte("three")); err != nil {
		t.Fatalf("third write after one-shot fault: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len("one")+len("three")) {
		t.Fatalf("file size %d: the failed write must not land bytes", st.Size())
	}
}

func TestStickyFaultKeepsFiring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "y.dat")
	fs := faultfs.New(faultfs.Fault{Op: faultfs.OpWrite, N: 2, Sticky: true, Err: faultfs.ErrNoSpace})

	if err := writeOnce(t, fs, path, []byte("ok")); err != nil {
		t.Fatalf("write before fault: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := writeOnce(t, fs, path, []byte("no")); !errors.Is(err, faultfs.ErrNoSpace) {
			t.Fatalf("sticky write %d: got %v, want ErrNoSpace", i, err)
		}
	}
	fs.SetFaults() // disarm: the disk comes back
	if err := writeOnce(t, fs, path, []byte("ok")); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

func TestShortWriteLandsHalfTheBuffer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.dat")
	fs := faultfs.New(faultfs.Fault{Op: faultfs.OpWrite, Short: true})

	payload := []byte("0123456789abcdef")
	err := writeOnce(t, fs, path, payload)
	if !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("short write: got %v, want ErrIO", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != len(payload)/2 {
		t.Fatalf("short write landed %d bytes, want %d", len(got), len(payload)/2)
	}
}

func TestRenameMatchesBothPaths(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.tmp")
	dst := filepath.Join(dir, "b.json")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Matching on the destination name: the fault string never appears in
	// the source path, so this proves Rename matches "oldpath -> newpath".
	fs := faultfs.New(faultfs.Fault{Op: faultfs.OpRename, Path: "b.json", Sticky: true})
	if err := fs.Rename(src, dst); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("rename: got %v, want ErrIO", err)
	}
	if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed rename must not create the destination: %v", err)
	}
}

func TestBalancesAndCounts(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	f, err := fs.OpenFile(filepath.Join(dir, "z.dat"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenBalance(); got != 1 {
		t.Fatalf("open balance with one open file: %d", got)
	}
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.OpenBalance(); got != 0 {
		t.Fatalf("open balance after close: %d", got)
	}
	counts := fs.Counts()
	if counts[faultfs.OpOpen] != 1 || counts[faultfs.OpWrite] != 1 ||
		counts[faultfs.OpSync] != 1 || counts[faultfs.OpClose] != 1 {
		t.Fatalf("counts %v: want one open, write, sync, close", counts)
	}
}

// TestCloseFaultStillReleasesDescriptor: an injected close failure must not
// wedge the balance — the descriptor is gone either way.
func TestCloseFaultStillReleasesDescriptor(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(faultfs.Fault{Op: faultfs.OpClose})
	f, err := fs.OpenFile(filepath.Join(dir, "c.dat"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("close: got %v, want ErrIO", err)
	}
	if got := fs.OpenBalance(); got != 0 {
		t.Fatalf("open balance after failed close: %d", got)
	}
}

// TestCrashAfter: the n operations after CrashAfter(n) run, the next one —
// a write, here — is torn, and every operation after it fails, of any
// class; SetFaults disarms the crash.
func TestCrashAfter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "z.dat")
	fs := faultfs.New()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Ops()
	fs.CrashAfter(1)
	if _, err := f.Write([]byte("whole")); err != nil {
		t.Fatalf("write before the crash: %v", err)
	}
	if _, err := f.Write([]byte("torn")); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("crashing write: got %v, want ErrIO", err)
	}
	if err := f.Sync(); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("sync after the crash: got %v, want ErrIO", err)
	}
	if _, err := fs.ReadFile(path); !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("read after the crash: got %v, want ErrIO", err)
	}
	if got := fs.Ops() - before; got != 4 {
		t.Fatalf("Ops counted %d operations, want 4", got)
	}
	f.Close()
	fs.SetFaults()
	data, err := fs.ReadFile(path)
	if err != nil || string(data) != "wholeto" {
		t.Fatalf("after SetFaults: %q, %v; want the whole write and half the torn one", data, err)
	}
}
