package router

import (
	"encoding/json"
	"testing"
	"time"

	morestress "repro"
	"repro/internal/serveapi"
)

// FuzzRouterKey drives arbitrary request bodies through the proxy's key
// derivation and placement. Invariants:
//
//   - SolveKey and Pick never panic, whatever the bytes (the proxy sees raw
//     client input before any replica validates it);
//   - key derivation is canonical: a decoded request re-encoded (different
//     field order) and a copy with every JSON default spelled out derive
//     the same key, and therefore the same shard — otherwise two spellings
//     of one scenario would split a lattice across replicas and silently
//     break cache affinity;
//   - solver options never influence placement (the lattice key is
//     geometry-only).
func FuzzRouterKey(f *testing.F) {
	f.Add([]byte(`{"rows":8,"cols":8}`))
	f.Add([]byte(`{"pitch":20,"nodes":4,"resolution":"coarse","structure":"pillar","quadratic":true,"rows":3,"cols":5,"deltaT":-100,"gridSamples":10,"solver":"cg","tol":1e-8,"maxIter":200,"precond":"ic0","ordering":"multicolor"}`))
	f.Add([]byte(`{"cols":1,"rows":1,"deltaT":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rows":-3,"cols":900}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[{"rows":1}]`))
	f.Add([]byte(`{"rows":1e308,"cols":8}`))

	proxy, err := NewProxy(ProxyOptions{Replicas: []string{"http://a", "http://b", "http://c"}, Backoff: time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	defer proxy.Close()
	table := NewTable([]string{"http://a", "http://b", "http://c"})

	f.Fuzz(func(t *testing.T, body []byte) {
		key, err := proxy.SolveKey(body)
		// Invalid bodies route by empty key; both paths must place without
		// panicking.
		_ = table.Pick(key)
		if err != nil {
			return
		}

		// The body decoded: rebuild it two more ways and require key
		// equality. Round-tripping through the struct reorders fields to
		// Go's canonical order.
		var req serveapi.JobRequest
		if uerr := json.Unmarshal(body, &req); uerr != nil {
			// SolveKey decodes with DisallowUnknownFields plus streaming
			// semantics; a body it accepted can still be rejected here
			// (e.g. trailing garbage after the object). Skip those.
			return
		}
		reenc, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("re-encode decoded request: %v", merr)
		}
		key2, err2 := proxy.SolveKey(reenc)
		if err2 != nil {
			t.Fatalf("re-encoded body failed key derivation: %v\nbody: %s", err2, reenc)
		}
		if key2 != key {
			t.Fatalf("re-encoded body changed key: %q → %q\noriginal: %s\nreencoded: %s", key, key2, body, reenc)
		}

		// Fill the defaults explicitly; the key must not move.
		filled := req
		if filled.Pitch == 0 {
			filled.Pitch = 15
		}
		if filled.Resolution == "" {
			filled.Resolution = "default"
		}
		if filled.Structure == "" {
			filled.Structure = "tsv"
		}
		if filled.Solver == "" {
			filled.Solver = "gmres"
		}
		if filled.DeltaT == nil {
			dt := -250.0
			filled.DeltaT = &dt
		}
		fenc, merr := json.Marshal(filled)
		if merr != nil {
			t.Fatalf("encode default-filled request: %v", merr)
		}
		key3, err3 := proxy.SolveKey(fenc)
		if err3 != nil {
			t.Fatalf("default-filled body failed key derivation: %v\nbody: %s", err3, fenc)
		}
		if key3 != key {
			t.Fatalf("spelling out defaults changed key: %q → %q\nbody: %s", key, key3, fenc)
		}

		// Solver options must not place: perturb them and require the same
		// shard.
		perturbed := req
		perturbed.Solver = "cg"
		perturbed.Tol = 1e-9
		perturbed.MaxIter = 7
		dt := 123.0
		perturbed.DeltaT = &dt
		penc, merr := json.Marshal(perturbed)
		if merr != nil {
			t.Fatalf("encode perturbed request: %v", merr)
		}
		if key4, err4 := proxy.SolveKey(penc); err4 == nil {
			if table.Pick(key4) != table.Pick(key) {
				t.Fatalf("solver options moved the shard: key %q vs %q", key, key4)
			}
			if key4 != key {
				t.Fatalf("solver options changed the lattice key: %q → %q", key, key4)
			}
		}

		// Placement is deterministic: derive and place again.
		key5, err5 := proxy.SolveKey(body)
		if err5 != nil || key5 != key {
			t.Fatalf("second derivation disagreed: key %q err %v, want %q", key5, err5, key)
		}

		if job, jerr := req.ToJob(); jerr == nil {
			if morestress.LatticeKey(job) != key {
				t.Fatalf("SolveKey %q disagrees with direct LatticeKey %q", key, morestress.LatticeKey(job))
			}
		}
	})
}
