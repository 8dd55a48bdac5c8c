package core

import (
	"encoding/json"
	"testing"
)

// hashGoldens pins Instance.Hash to literal digests. Job IDs embed the
// digest and job resume refuses a checkpoint whose recomputed
// InstanceHash differs, so these bytes are a persisted format: a
// change to any value here breaks every stored job and must come with
// a new instanceHashVersion and a checkpoint migration, never with an
// edited golden.
var hashGoldens = []struct {
	name, json, hash string
}{
	{
		name: "continuous bi-crit mapped",
		json: `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],
			"edges":[[0,1],[0,2]],"processors":2,"mapping":[[0,1],[2]],
			"speedModel":{"kind":"continuous","fmin":0.05,"fmax":10},"deadline":4}`,
		hash: "8620c864d7c56f1d7840a1271a0a437e",
	},
	{
		name: "continuous bi-crit mapped, edges permuted and duplicated",
		json: `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],
			"edges":[[0,2],[0,1],[0,2],[0,1]],"mapping":[[0,1],[2]],
			"speedModel":{"kind":"continuous","fmin":0.05,"fmax":10},"deadline":4}`,
		hash: "8620c864d7c56f1d7840a1271a0a437e",
	},
	{
		name: "continuous bi-crit list-scheduled",
		json: `{"tasks":[{"name":"s","weight":1},{"name":"x","weight":4},{"name":"y","weight":2},{"name":"t","weight":1}],
			"edges":[[0,1],[0,2],[1,3],[2,3]],"processors":2,
			"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":20}`,
		hash: "a42497bee0f321f9516598f6c8036199",
	},
	{
		name: "continuous bi-crit list-scheduled, edges permuted and duplicated",
		json: `{"tasks":[{"name":"s","weight":1},{"name":"x","weight":4},{"name":"y","weight":2},{"name":"t","weight":1}],
			"edges":[[2,3],[0,2],[1,3],[0,1],[2,3]],"processors":2,
			"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":20}`,
		hash: "a42497bee0f321f9516598f6c8036199",
	},
	{
		name: "discrete bi-crit mapped, levels unsorted and duplicated",
		json: `{"tasks":[{"name":"a","weight":1.5},{"name":"b","weight":2.25}],
			"edges":[[0,1]],"processors":1,"mapping":[[0,1]],
			"speedModel":{"kind":"discrete","levels":[1,0.4,0.7,1,0.4]},"deadline":12}`,
		hash: "518f44f723420ff49660d1c7de9b9050",
	},
	{
		name: "discrete tri-crit list-scheduled",
		json: `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":1}],
			"edges":[[0,2],[1,2]],"processors":2,
			"speedModel":{"kind":"discrete","levels":[0.15,0.4,0.6,0.8,1]},"deadline":30,
			"reliability":{"lambda0":1e-5,"d":3,"frel":0.8}}`,
		hash: "2e5022f39ee503e9fb4d71cbe8699356",
	},
	{
		name: "vdd-hopping bi-crit list-scheduled",
		json: `{"tasks":[{"name":"a","weight":3},{"name":"b","weight":1},{"name":"c","weight":2}],
			"edges":[[0,1],[1,2]],"processors":1,
			"speedModel":{"kind":"vdd-hopping","levels":[0.8,0.2,0.5]},"deadline":25}`,
		hash: "f717c89d995cfc67bc74ea29ef4557f6",
	},
	{
		name: "vdd-hopping tri-crit mapped, edges duplicated",
		json: `{"tasks":[{"name":"a","weight":3},{"name":"b","weight":1},{"name":"c","weight":2}],
			"edges":[[0,1],[0,1],[0,2]],"mapping":[[0,2],[1]],
			"speedModel":{"kind":"vdd-hopping","levels":[0.2,0.5,0.8]},"deadline":25,
			"reliability":{"lambda0":2e-5,"d":2,"frel":0.5}}`,
		hash: "a19d4d2b05eb2b39e2291afd5b68eb43",
	},
	{
		name: "incremental tri-crit mapped",
		json: `{"tasks":[{"name":"p","weight":2},{"name":"q","weight":2}],
			"edges":[],"processors":2,"mapping":[[1],[0]],
			"speedModel":{"kind":"incremental","fmin":0.2,"fmax":1,"delta":0.15},"deadline":15,
			"reliability":{"lambda0":1e-6,"d":4,"frel":0.9}}`,
		hash: "39a1162a3f92a24a71c9c60627bb25e1",
	},
	{
		name: "incremental bi-crit list-scheduled",
		json: `{"tasks":[{"name":"p","weight":2},{"name":"q","weight":1},{"name":"r","weight":5}],
			"edges":[[0,2]],"processors":3,
			"speedModel":{"kind":"incremental","fmin":0.1,"fmax":1,"delta":0.3},"deadline":40}`,
		hash: "06e48013135656cea9037cd9fc910d66",
	},
}

func TestHashGolden(t *testing.T) {
	for _, g := range hashGoldens {
		in, err := UnmarshalInstance([]byte(g.json))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := in.Hash(); got != g.hash {
			t.Errorf("%s: Hash() = %s, want %s", g.name, got, g.hash)
		}
	}
}

// TestKeyGolden holds WireInstance.Key to the same literal digests:
// known exactly when the body carries a mapping, and then equal to
// the built instance's Hash.
func TestKeyGolden(t *testing.T) {
	for _, g := range hashGoldens {
		var w WireInstance
		if err := json.Unmarshal([]byte(g.json), &w); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		key, ok := w.Key()
		if mapped := len(w.Mapping) > 0; ok != mapped {
			t.Errorf("%s: Key known = %t, want %t", g.name, ok, mapped)
			continue
		}
		if ok && key != g.hash {
			t.Errorf("%s: Key() = %s, want %s", g.name, key, g.hash)
		}
	}
}
