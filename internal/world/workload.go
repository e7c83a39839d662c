package world

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
)

// WorkloadHash returns a stable identity for one user-byte workload: a
// hash over the spec's declared streams (names, capacities, seeds), its
// kernel parameters, and the user-site input bytes. It is the workload
// analogue of lang.Program.Hash — measured store points key on it, so
// two differently-named sessions over the same input spec share one
// measured history, and renaming a session stops fragmenting it. Any
// change that alters what the user run executes — a stream added or
// resized, a kernel knob flipped, different user bytes — changes the hash;
// a cosmetic rename does not.
func WorkloadHash(spec *Spec, user map[string][]byte) string {
	h := sha256.New()
	io.WriteString(h, "pathlog-workload-v1\n")
	stream := func(kind string, st Stream) {
		fmt.Fprintf(h, "%s %s len=%d seed=%x\n", kind, st.Name, st.Len, st.Seed)
	}
	for _, a := range spec.Args {
		stream("arg", a)
	}
	for _, f := range spec.Files {
		fmt.Fprintf(h, "file-path %s\n", f.Path)
		stream("file", f.Stream)
	}
	for _, c := range spec.Conns {
		fmt.Fprintf(h, "conn-arrival %d\n", c.ArrivalTick)
		stream("conn", c.Stream)
	}
	fmt.Fprintf(h, "kernel port=%d seed=%d shortread=%d rotate=%v crash=%v symfs=%v\n",
		spec.ListenPort, spec.KernelSeed, spec.ShortReadDenom,
		spec.RotateSelectOrder, spec.CrashSignalAfterConns, spec.SymbolicFS)
	names := make([]string, 0, len(user))
	for name := range user {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "user %s=%x\n", name, user[name])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
