package core

import (
	"encoding/json"
	"testing"
)

// FuzzUnmarshalInstance hardens the JSON ingest path: arbitrary bytes
// must either be rejected with an error or yield an instance that (a)
// passes Validate, (b) marshals back, (c) survives the round trip, and
// (d) has a stable canonical Hash across the round trip. Panics and
// accepted-but-invalid instances are the bugs this hunts.
func FuzzUnmarshalInstance(f *testing.F) {
	for _, in := range []*Instance{contInstance(2), triInstance(6)} {
		data, err := MarshalInstance(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tasks":[]}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1e999}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":-1}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"edges":[[0,0]],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"processors":0,"speedModel":{"kind":"discrete","levels":[0.5,1]},"deadline":1}`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":1}],"processors":1,"speedModel":{"kind":"incremental","fmin":0.1,"fmax":1,"delta":0.01},"deadline":1,"reliability":{"lambda0":1e-5,"d":3,"frel":0.8}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"tasks":[{"name":"a","weight":`))

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := UnmarshalInstance(data)
		if err != nil {
			return // rejection is always a legal outcome
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("UnmarshalInstance accepted an instance that fails Validate: %v\ninput: %q", err, data)
		}
		h := in.Hash()
		if len(h) != 32 {
			t.Fatalf("Hash() = %q, want 32 hex chars", h)
		}
		out, err := MarshalInstance(in)
		if err != nil {
			t.Fatalf("accepted instance fails MarshalInstance: %v\ninput: %q", err, data)
		}
		back, err := UnmarshalInstance(out)
		if err != nil {
			t.Fatalf("canonical marshal does not round-trip: %v\nmarshal: %s", err, out)
		}
		if back.Hash() != h {
			t.Fatalf("Hash unstable across round trip: %s → %s\nmarshal: %s", h, back.Hash(), out)
		}
	})
}

// FuzzInstanceKey holds WireInstance.Key to its contract on arbitrary
// wire instances: a known key equals the built instance's Hash, and a
// known key of an instance Build rejects collides with no valid seed
// instance's hash — a cache keyed by Key can never serve a rejected
// body another instance's result.
func FuzzInstanceKey(f *testing.F) {
	seeds := []string{
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]],"mapping":[],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]],"mapping":[[0,1]],"processors":2,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]],"mapping":[[0,1]],"processors":-1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],"edges":[[0,2],[0,1],[0,2],[0,1]],"mapping":[[0,1],[2]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1],[1,0]],"mapping":[[0,1]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]],"mapping":[[1,0]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"edges":[[0,1]],"mapping":[[0,1],[1]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"mapping":[[0,1]],"speedModel":{"kind":"discrete","levels":[1,0.4,0.7,1,0.4]},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],"mapping":[[0],[1]],"speedModel":{"kind":"vdd-hopping","levels":[0.7,0.4,0.4]},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1}],"mapping":[[0]],"speedModel":{"kind":"incremental","fmin":0.2,"fmax":1,"delta":0.3},"deadline":10,"reliability":{"lambda0":1e-5,"d":3,"frel":0.8}}`,
		`{"tasks":[{"name":"a","weight":1}],"mapping":[[0]],"speedModel":{"kind":"incremental","fmin":0.2,"fmax":1,"delta":0},"deadline":10}`,
		`{"tasks":[{"name":"a","weight":1}],"mapping":[[0]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10,"reliability":{"lambda0":1e-5,"d":3,"frel":2}}`,
		`{"tasks":[],"mapping":[[]],"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`,
	}
	for _, g := range hashGoldens {
		seeds = append(seeds, g.json)
	}
	valid := map[string]bool{} // hashes of the seeds Build accepts
	for _, s := range seeds {
		f.Add([]byte(s))
		if in, err := UnmarshalInstance([]byte(s)); err == nil {
			valid[in.Hash()] = true
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireInstance
		if json.Unmarshal(data, &w) != nil {
			return
		}
		key, ok := w.Key()
		if !ok {
			return
		}
		if again, _ := w.Key(); again != key {
			t.Fatalf("Key not deterministic: %s then %s\ninput: %s", key, again, data)
		}
		in, err := w.Build()
		if err != nil {
			if valid[key] {
				t.Fatalf("Build rejects the input (%v) but its key %s is a valid seed's\ninput: %s", err, key, data)
			}
			return
		}
		if h := in.Hash(); h != key {
			t.Fatalf("Key() = %s, Build().Hash() = %s\ninput: %s", key, h, data)
		}
	})
}
