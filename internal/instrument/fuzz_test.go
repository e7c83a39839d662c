package instrument

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodePlan feeds arbitrary bytes to DecodePlan, the decoder a site
// runs on a plan fetched over the wire. It must never panic, and a plan it
// accepts must survive Encode and a second decode with the same
// fingerprint, lineage and strategy label. The seeds are the committed
// plan goldens (this package's and the plan store's base and child plans),
// the same plans in the parent format (with the retired replay-runs
// estimate and method tag) and the smallest envelope the decoder accepts:
// no label, no program hash and no fingerprint.
func FuzzDecodePlan(f *testing.F) {
	for _, path := range []string{
		filepath.Join("testdata", "plan_golden.json"),
		filepath.Join("..", "store", "testdata", "plan_base_golden.json"),
		filepath.Join("..", "store", "testdata", "plan_child_golden.json"),
		filepath.Join("testdata", "plan_parent_golden.json"),
		filepath.Join("..", "store", "testdata", "plan_base_parent_golden.json"),
		filepath.Join("..", "store", "testdata", "plan_child_parent_golden.json"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"instrumented_branches":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlan(data)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		q, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan refused: %v\n%s", err, enc)
		}
		if p.Fingerprint() != q.Fingerprint() {
			t.Fatalf("fingerprint %s became %s", p.Fingerprint(), q.Fingerprint())
		}
		if p.Generation != q.Generation || p.Parent != q.Parent {
			t.Fatalf("lineage gen %d parent %q became gen %d parent %q", p.Generation, p.Parent, q.Generation, q.Parent)
		}
		if p.Strategy != q.Strategy {
			t.Fatalf("label %q became %q", p.Strategy, q.Strategy)
		}
	})
}
