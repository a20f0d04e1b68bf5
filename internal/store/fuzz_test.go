package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes as the entry file of a fixed key and
// reads it back. Get must never panic, must hit only on an envelope with
// the current format version, the store's key schema and exactly the
// requested key — returning that envelope's value — and must move every
// other file out of the entry's path, so a bad byte on disk costs a
// recompute, never a wrong result.
func FuzzStoreGet(f *testing.F) {
	const key, schema = "cell|c432|seed=1", 2
	s := open(f, f.TempDir(), schema)
	if err := s.Put(key, map[string]int{"a": 1}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, mutate := range []func(*envelope){
		func(env *envelope) { env.KeySchema = schema + 1 },
		func(env *envelope) { env.Key = "cell|c880|seed=1" },
	} {
		var env envelope
		if err := json.Unmarshal(valid, &env); err != nil {
			f.Fatal(err)
		}
		mutate(&env)
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s := open(t, t.TempDir(), schema)
		p := s.path(key)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		raw, ok := s.Get(key)
		var env envelope
		want := json.Unmarshal(data, &env) == nil &&
			env.Version == formatVersion && env.KeySchema == schema && env.Key == key
		if ok != want {
			t.Fatalf("Get ok = %v, want %v for entry %q", ok, want, data)
		}
		if ok {
			if !bytes.Equal(raw, env.Value) {
				t.Fatalf("Get value = %q, want the envelope's %q", raw, env.Value)
			}
			return
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("invalid entry %q still at its path (stat err %v)", data, err)
		}
	})
}
