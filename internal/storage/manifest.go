package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest is the data directory's root pointer: a small JSON document
// naming every finished segment (in spill order per shard) plus the on-disk
// format version, the shard count the directory was created with, the
// newest WAL generation (bumped by every log rotation — a shard's
// checkpoint or a degraded-mode heal, see engine.go and health.go) and each
// shard's oldest live generation. Recovery trusts only manifest-listed
// segments — an open segment at crash time has no footer and is deleted,
// its blocks re-derived from the WAL — and only the log generations the
// manifest holds live: generation files above wal_gen were created by a
// rotation that crashed before its manifest barrier landed, and files below
// a shard's floor were superseded by the checkpoint at the floor; both are
// deleted unread.
//
// Updates are atomic: write to a temp file, fsync, rename over
// MANIFEST.json, fsync the directory. A crash leaves either the old or the
// new manifest, never a torn one; a *failed* write additionally removes its
// temp file so a degraded directory does not accumulate half-written
// manifests.
//
// Format versioning rule (recorded in ROADMAP.md as the contract for future
// PRs): a reader refuses a manifest whose format is NEWER than it knows
// (fail loudly rather than misread), and must migrate OLDER formats forward
// explicitly when the format ever changes.
//
// Format history:
//
//	1: format, shards, segments (PR 5)
//	2: adds wal_gen — per-directory WAL generation for degraded-mode log
//	   rotation. Logs are named shard-NNNN.wal (generation 0, the format-1
//	   layout) or shard-NNNN-GGGGGG.wal (generation ≥ 1); replay walks a
//	   shard's generations in order. A format-1 directory migrates forward
//	   as wal_gen 0; format-1 readers must refuse format-2 directories,
//	   which is exactly what the rule above makes them do.
//	3: declares that shard logs may hold sequenced record types 't'/'b'
//	   (exactly-once ingest, PR 9). No manifest field changes; the bump
//	   exists so a format-2 binary refuses the directory loudly instead of
//	   reporting the unknown record types as WAL corruption. Formats 1 and 2
//	   migrate forward without rewriting any log.
//	4: adds wal_floor — each shard's oldest live WAL generation — and the
//	   checkpoint record type 'C' (wal.go). When a shard's open segment
//	   finishes, the shard's log rotates: a new generation opens with one
//	   checkpoint record per meter, the manifest moves the shard's floor to
//	   it, and the generations below are unlinked, so replay reads from the
//	   floor only. wal_gen becomes the newest generation of any shard (a
//	   shard's own newest generation may be lower). Formats 1–3 migrate
//	   forward with every floor at 0, which reads every generation exactly
//	   as those formats did; a format-3 binary refuses a format-4 directory
//	   by the rule above.
const (
	manifestName   = "MANIFEST.json"
	manifestFormat = 4
)

// ErrFormatTooNew reports a data directory written by a newer binary.
var ErrFormatTooNew = errors.New("storage: data directory format is newer than this binary")

type manifestSegment struct {
	File  string `json:"file"`
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
}

type manifest struct {
	Format int    `json:"format"`
	Shards int    `json:"shards"`
	WALGen uint64 `json:"wal_gen,omitempty"`
	// WALFloor holds one entry per shard: the oldest log generation recovery
	// reads for it (format ≥ 4).
	WALFloor []uint64          `json:"wal_floor"`
	Segments []manifestSegment `json:"segments"`
}

// newManifest is a fresh directory's manifest: every shard's log starts at
// generation 0.
func newManifest(shards int) manifest {
	return manifest{Format: manifestFormat, Shards: shards, WALFloor: make([]uint64, shards)}
}

// loadManifest reads dir's manifest; ok is false when none exists (a fresh
// directory). An older format is migrated forward in memory and reported via
// migrated so the caller persists the rewrite.
func loadManifest(fsys FS, dir string) (m manifest, ok, migrated bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return m, false, false, nil
	}
	if err != nil {
		return m, false, false, err
	}
	m, migrated, err = parseManifest(data, manifestFormat)
	return m, err == nil, migrated, err
}

// parseManifest decodes a manifest for a reader that knows formats up to
// newest, refusing newer ones and migrating older ones forward.
func parseManifest(data []byte, newest int) (m manifest, migrated bool, err error) {
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false, fmt.Errorf("storage: %s: %w", manifestName, err)
	}
	if m.Format > newest {
		return m, false, fmt.Errorf("%w: format %d, this binary reads ≤ %d", ErrFormatTooNew, m.Format, newest)
	}
	if m.Format < 1 || m.Shards < 1 {
		return m, false, fmt.Errorf("storage: %s: implausible format %d / shards %d", manifestName, m.Format, m.Shards)
	}
	if m.Format < manifestFormat {
		if m.Format == 1 {
			// Format 1 predates WAL generations: all of its logs are
			// generation 0 whatever a stray field claims.
			m.WALGen = 0
		}
		// 2 → 3 changes no fields: format 3 only licenses the sequenced WAL
		// record types, and a pre-sequencing log is a valid sequenced log
		// with every high-water mark at 0. 3 → 4 adds the floors: before
		// checkpoints every generation from 0 up was live.
		m.WALFloor = make([]uint64, m.Shards)
		m.Format = manifestFormat
		migrated = true
	}
	if len(m.WALFloor) != m.Shards {
		return m, false, fmt.Errorf("storage: %s: %d WAL floors for %d shards", manifestName, len(m.WALFloor), m.Shards)
	}
	for i, f := range m.WALFloor {
		if f > m.WALGen {
			return m, false, fmt.Errorf("storage: %s: shard %d floor %d above wal_gen %d", manifestName, i, f, m.WALGen)
		}
	}
	return m, migrated, nil
}

// errManifestUnsynced reports a manifest replacement whose rename landed but
// whose directory fsync failed: the new manifest is the one a restart
// reads, but it may not survive power loss.
var errManifestUnsynced = errors.New("storage: manifest renamed but directory fsync failed")

// writeManifest atomically replaces dir's manifest. On any failure before
// the rename the temp file is removed (best effort): the previous manifest
// stays in place and loadable, and no half-written temp survives to confuse
// an operator or a later retry. A failure after it is errManifestUnsynced.
func writeManifest(fsys FS, dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("%w: %w", errManifestUnsynced, err)
	}
	return nil
}
