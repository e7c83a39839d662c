package lang_test

import (
	"sync"
	"testing"

	"pathlog/internal/apps"
	"pathlog/internal/lang"
)

// appPrograms links every program internal/apps ships, fresh on each call.
func appPrograms() map[string]*lang.Program {
	progs := map[string]*lang.Program{
		"userver":   apps.UServerProgram(),
		"diff":      apps.DiffProgram(),
		"microloop": apps.MicroLoopProgram(),
		"microfib":  apps.MicroFibProgram(),
	}
	for _, c := range apps.Coreutils(0) {
		progs[c.Name] = c.Prog
	}
	return progs
}

// pinnedHashes are the program hashes plans, recordings and store keys in
// the wild carry: the memoised hash must keep these bytes.
var pinnedHashes = map[string]string{
	"mkdir":     "32d01359b13da8e751a29d3782ebf7a3",
	"mknod":     "bf9f691f6bdce9984c82eee95d32eb9e",
	"mkfifo":    "b01a36b28a5de159d391c205b55b6057",
	"paste":     "555fa6efe8ddff8f96b9ecd1f637bccf",
	"userver":   "ce3b69cf753be620a8ff4c01695bcce9",
	"diff":      "4fa46702e974af79b987f9cce6afa582",
	"microloop": "cb8085ec738318f812c7ff1031ac1d24",
	"microfib":  "9c20d2e750ae814e1f37094fab834369",
}

// TestHashMemoised checks, for every app program, that the memoised hash
// equals an uncached recomputation (before and after it is cached) and the
// pinned value, and that a cached Hash does no hashing work.
func TestHashMemoised(t *testing.T) {
	progs := appPrograms()
	if len(progs) != len(pinnedHashes) {
		t.Fatalf("%d app programs, %d pinned hashes", len(progs), len(pinnedHashes))
	}
	for name, p := range progs {
		fresh := p.ComputeHash()
		if got := p.Hash(); got != fresh {
			t.Errorf("%s: Hash %s, recomputed %s", name, got, fresh)
		}
		if got := p.Hash(); got != p.ComputeHash() {
			t.Errorf("%s: cached Hash %s disagrees with a recomputation", name, got)
		}
		if want := pinnedHashes[name]; fresh != want {
			t.Errorf("%s: hash %s, pinned %s", name, fresh, want)
		}
		if n := testing.AllocsPerRun(10, func() { p.Hash() }); n != 0 {
			t.Errorf("%s: Hash allocates %.0f times per call once cached: it is recomputed", name, n)
		}
	}
}

// TestHashConcurrentCallers races first calls to Hash on fresh programs:
// every caller must see the one hash (run under -race).
func TestHashConcurrentCallers(t *testing.T) {
	for name, p := range appPrograms() {
		want := p.ComputeHash()
		const callers = 8
		got := make([]string, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = p.Hash()
			}()
		}
		wg.Wait()
		for i, h := range got {
			if h != want {
				t.Errorf("%s: caller %d got %s, want %s", name, i, h, want)
			}
		}
	}
}
