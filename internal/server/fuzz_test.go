package server

import (
	"errors"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bodies at the request decoder: malformed
// input must surface as a 400 apiError (never a panic or a foreign error
// type), and any accepted body must resolve deterministically — the same
// bytes re-decoded yield the same canonical cache keys.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(`{"bench":"elliptic","seed":1,"slack":4}`)
	f.Add(`{"bench":"volterra","seed":9,"slack":2,"algorithm":"anytime","timeout_ms":50}`)
	f.Add(`{"graph":{"nodes":[{"name":"a","op":"add"}],"edges":[]},"table":{"time":[[1]],"cost":[[2]]},"deadline":3}`)
	f.Add(`{"bench":"diffeq","catalog":"generic3","deadline":40,"schedule":true}`)
	f.Add(`{"bench":`)
	f.Add(`{"bench":"elliptic","seed":1,"deadline":-5}`)
	f.Add(`{"bench":"elliptic","seed":1,"slack":4}{"x":1}`)
	f.Add(`{"bench":"elliptic","seed":1,"deadline":2147483999}`)
	f.Add(`{"bench":"elliptic","seed":1,"slack":4,"types":99}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSolveRequestBytes([]byte(body))
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("decode error is %T (%v), want *apiError", err, err)
			}
			if ae.Status != 400 {
				t.Fatalf("decode rejection carries status %d, want 400", ae.Status)
			}
			return
		}
		if spec.prob.Validate() != nil {
			t.Fatalf("decoder accepted an invalid problem: %v", spec.prob.Validate())
		}
		if spec.key == "" || spec.instKey == "" {
			t.Fatal("accepted spec with empty canonical keys")
		}
		again, err := decodeSolveRequestBytes([]byte(body))
		if err != nil {
			t.Fatalf("body accepted once, rejected on re-decode: %v", err)
		}
		if spec.key != again.key || spec.instKey != again.instKey {
			t.Fatalf("canonical keys unstable across decodes: (%s,%s) vs (%s,%s)",
				spec.key, spec.instKey, again.key, again.instKey)
		}
		if spec.anytime != (spec.algoName == "anytime") {
			t.Fatalf("anytime flag %v inconsistent with algorithm %q", spec.anytime, spec.algoName)
		}
	})
}
