package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func open(t testing.TB, dir string, schema int) *Store {
	t.Helper()
	s, err := Open(dir, Options{KeySchema: schema, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 1)
	type payload struct {
		A int     `json:"a"`
		B float64 `json:"b"`
	}
	want := payload{A: 7, B: 0.1}
	if err := s.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	raw, ok := s.Get("k1")
	if !ok {
		t.Fatal("Get missed a stored key")
	}
	var got payload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("Get hit a key that was never stored")
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want 1 entry", n, err)
	}
}

func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", i); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Fatalf("dir holds %d entries, want 1 (rewrites replace)", len(ents))
	}
}

// quarantineCase corrupts a stored entry with mutate and asserts the next
// Get quarantines it and misses.
func quarantineCase(t *testing.T, mutate func(t *testing.T, s *Store, path string)) {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir, 1)
	if err := s.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	mutate(t, s, s.path("k"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get hit an invalid entry")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (%v), want 1", len(q), err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", n)
	}
	// The slot is free again: a fresh Put works.
	if err := s.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if raw, ok := s.Get("k"); !ok || string(raw) != `"v2"` {
		t.Fatalf("post-quarantine Get = (%s, %v), want v2", raw, ok)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	quarantineCase(t, func(t *testing.T, s *Store, p string) {
		if err := os.Truncate(p, 10); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFormatVersionMismatchQuarantined(t *testing.T) {
	quarantineCase(t, func(t *testing.T, s *Store, p string) {
		rewriteEnvelope(t, p, func(env *envelope) { env.Version = formatVersion + 1 })
	})
}

func TestKeySchemaMismatchQuarantined(t *testing.T) {
	quarantineCase(t, func(t *testing.T, s *Store, p string) {
		rewriteEnvelope(t, p, func(env *envelope) { env.KeySchema = 99 })
	})
}

func TestKeyMismatchQuarantined(t *testing.T) {
	quarantineCase(t, func(t *testing.T, s *Store, p string) {
		rewriteEnvelope(t, p, func(env *envelope) { env.Key = "other" })
	})
}

func rewriteEnvelope(t *testing.T, p string, mutate func(*envelope)) {
	t.Helper()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestNilStoreIsEmpty(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put("k", 1); err != nil {
		t.Fatalf("nil store Put = %v, want nil", err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("nil store Len = (%d, %v), want 0", n, err)
	}
}

func TestSeparateSchemasShareADirectory(t *testing.T) {
	// Two callers with different key schemas can share one directory as
	// long as their key strings differ (different prefixes): each only
	// ever reads its own files.
	dir := t.TempDir()
	a := open(t, dir, 1)
	b := open(t, dir, 2)
	if err := a.Put("a|k", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("b|k", 2); err != nil {
		t.Fatal(err)
	}
	if raw, ok := a.Get("a|k"); !ok || string(raw) != "1" {
		t.Fatalf("a.Get = (%s, %v)", raw, ok)
	}
	if raw, ok := b.Get("b|k"); !ok || string(raw) != "2" {
		t.Fatalf("b.Get = (%s, %v)", raw, ok)
	}
}
