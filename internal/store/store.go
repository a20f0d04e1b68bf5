// Package store is the two-tier result cache shared by the suite
// scheduler (internal/flow) and the evaluation server (internal/server):
// Cache, an in-memory singleflight tier with an LRU cap, over Store, a
// disk-backed content-addressed result store. Each caller only picks a
// capacity and a store directory. A killed suite run resumes from the
// disk tier, and identical requests are free across process restarts and
// across smbench/smserve.
//
// Each entry is one file named sha256(key).json holding a small JSON
// envelope — a format version, the caller's key-schema version, the full
// key, and the raw value JSON. Writes go through a temp file in the same
// directory, fsync, rename, and a directory fsync, so a crash never
// leaves a torn entry and concurrent writers of the same key are safe
// (last rename wins; content-addressed values are identical anyway).
// Reads validate the envelope: a corrupt file, a foreign format or key
// schema, or a hash collision (stored key != requested key) moves the
// file into dir/quarantine/ and reports a miss, so one bad byte on disk
// costs a recompute, never a wrong result.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// formatVersion is the envelope layout version. Bump it when the
// envelope itself changes shape; entries written under another version
// are quarantined on read.
const formatVersion = 1

// quarantineDir is the subdirectory invalid entries are moved to.
const quarantineDir = "quarantine"

// Options parameterizes Open.
type Options struct {
	// KeySchema is the caller's key-format version: bump it when the
	// meaning of a key changes without changing its bytes (an algorithm
	// fix that invalidates old results, say). Entries written under a
	// different key schema are quarantined and treated as misses.
	KeySchema int
	// Logf, when non-nil, receives one line per quarantine and per
	// failed write. The store never fails a computation over a bad
	// disk — it degrades to a miss (reads) or to uncached (writes).
	Logf func(format string, args ...any)
}

// Store is one result-store directory. A nil *Store is a valid empty
// store: Get always misses and Put is a no-op, so callers without a
// cache dir need no branching.
type Store struct {
	dir       string
	keySchema int
	logf      func(format string, args ...any)
}

// envelope is the on-disk entry layout.
type envelope struct {
	Version   int             `json:"version"`
	KeySchema int             `json:"key_schema"`
	Key       string          `json:"key"`
	Value     json.RawMessage `json:"value"`
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, keySchema: opt.KeySchema, logf: opt.Logf}, nil
}

func (s *Store) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// path returns the entry file for key: sha256 of the key so arbitrary
// key strings (they embed JSON and | separators) never meet the
// filesystem's name rules.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// Get returns the raw value JSON stored under key. ok is false on a
// miss — including a present-but-invalid entry, which is quarantined.
func (s *Store) Get(key string) (value []byte, ok bool) {
	if s == nil {
		return nil, false
	}
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) {
			s.log("store: read %s: %v", p, err)
		}
		return nil, false
	}
	var env envelope
	switch err := json.Unmarshal(data, &env); {
	case err != nil:
		s.quarantine(p, fmt.Sprintf("corrupt entry: %v", err))
	case env.Version != formatVersion:
		s.quarantine(p, fmt.Sprintf("format version %d, want %d", env.Version, formatVersion))
	case env.KeySchema != s.keySchema:
		s.quarantine(p, fmt.Sprintf("key schema %d, want %d", env.KeySchema, s.keySchema))
	case env.Key != key:
		s.quarantine(p, "stored key does not match the requested key")
	default:
		return env.Value, true
	}
	return nil, false
}

// Put durably stores value (anything json.Marshal accepts) under key:
// temp file in the store directory, write, fsync, rename over the final
// name, fsync the directory. The returned error is advisory — callers
// log it and continue uncached.
func (s *Store) Put(key string, value any) error {
	if s == nil {
		return nil
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("store: marshal value: %w", err)
	}
	data, err := json.Marshal(envelope{
		Version: formatVersion, KeySchema: s.keySchema, Key: key, Value: raw,
	})
	if err != nil {
		return fmt.Errorf("store: marshal envelope: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(s.dir)
}

// quarantine moves an invalid entry aside (same basename under
// dir/quarantine/) so the next Get recomputes instead of re-tripping,
// and the bad bytes stay available for inspection.
func (s *Store) quarantine(p, reason string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.log("store: quarantine %s: %v", p, err)
		os.Remove(p)
		return
	}
	dst := filepath.Join(qdir, filepath.Base(p))
	if err := os.Rename(p, dst); err != nil {
		s.log("store: quarantine %s: %v", p, err)
		os.Remove(p)
		return
	}
	s.log("store: quarantined %s: %s", filepath.Base(p), reason)
}

// Len counts the valid-looking entries on disk (files in the store
// directory itself; quarantined and temp files excluded).
func (s *Store) Len() (int, error) {
	if s == nil {
		return 0, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
