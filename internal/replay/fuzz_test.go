package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pathlog/internal/oskernel"
)

// FuzzDecodeRecording feeds arbitrary bytes to DecodeRecording, the decoder
// every shard worker runs on each inline envelope and every intake service
// runs on each POSTed report. It must never panic, and a recording it
// accepts must re-encode (Encode, or EncodeRef when it is stamped-only) and
// decode again with the same fingerprint stamp, trace bits, crash site and
// syscall log. The seeds are the committed version-1 and version-2
// envelopes, the version-2 golden in the parent format (with the retired
// replay-runs estimate), a version-3 reference envelope derived from the
// current version-2 golden, and a
// version-1 envelope whose stamp does not match its plan (Encode would
// write that stamp into a version-2 envelope the decoder then refuses).
func FuzzDecodeRecording(f *testing.F) {
	var v2 []byte
	for _, name := range []string{"recording_v1.json", "recording_v2_parent.json", "recording_v2_golden.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		v2 = data
	}
	rec, err := DecodeRecording(v2)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := rec.EncodeRef()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ref)
	f.Add([]byte(`{"version":1,"instrumented_branches":[0],"trace_bits":0,"trace_data":"","plan_fingerprint":"bogus","crash":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecording(data)
		if err != nil {
			return
		}
		var enc []byte
		if rec.Plan != nil {
			enc, err = rec.Encode()
		} else {
			enc, err = rec.EncodeRef()
		}
		if err != nil {
			t.Fatalf("accepted recording does not encode: %v", err)
		}
		again, err := DecodeRecording(enc)
		if err != nil {
			t.Fatalf("re-encoded recording refused: %v\n%s", err, enc)
		}
		if got, want := stamp(again), stamp(rec); got != want {
			t.Fatalf("fingerprint stamp %s became %s", want, got)
		}
		if (again.Plan == nil) != (rec.Plan == nil) {
			t.Fatalf("plan presence changed: %v became %v", rec.Plan != nil, again.Plan != nil)
		}
		if again.Trace.Len() != rec.Trace.Len() || !bytes.Equal(again.Trace.Bytes(), rec.Trace.Bytes()) {
			t.Fatalf("trace %d bits %x became %d bits %x",
				rec.Trace.Len(), rec.Trace.Bytes(), again.Trace.Len(), again.Trace.Bytes())
		}
		if again.Crash != rec.Crash {
			t.Fatalf("crash site %+v became %+v", rec.Crash, again.Crash)
		}
		if !sameSyscallLog(again.SysLog, rec.SysLog) {
			t.Fatalf("syscall log changed across the round trip")
		}
	})
}

// stamp is the plan identity a recording carries: its fingerprint stamp,
// or its plan's fingerprint on an unstamped version-1 envelope (Encode
// stamps those).
func stamp(r *Recording) string {
	if r.Fingerprint == "" && r.Plan != nil {
		return r.Plan.Fingerprint()
	}
	return r.Fingerprint
}

// sameSyscallLog compares two logs by content; an empty entry and a nil
// one are the same recorded result.
func sameSyscallLog(a, b *oskernel.SyscallLog) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	ar, as := a.Snapshot()
	br, bs := b.Snapshot()
	return slices.Equal(ar, br) && slices.EqualFunc(as, bs, slices.Equal)
}
