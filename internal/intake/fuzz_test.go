package intake

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathlog/internal/obs"
)

// FuzzReadJournal feeds arbitrary bytes to the journal replay every intake
// restart runs. It must never panic and must refuse only with
// ErrJournalDamaged. An accepted journal's valid prefix is never longer
// than the input, re-reading that prefix returns the same records and the
// same prefix (healing a torn tail is a fixpoint), and the accepted
// records, re-encoded through the journal's own encoder, read back
// identically. The seeds are a journal written by the append side, the
// same journal with a torn final record, and one with two records' seq
// order swapped.
func FuzzReadJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), JournalName)
	j, _, err := openJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{TimeUnix: 1700000000, Event: EventAccepted, Sig: "5f3a", Prog: "ab12", Plan: "cd34", Gen: 1},
		{TimeUnix: 1700000001, Event: EventDuplicate, Sig: "5f3a", Prog: "ab12", Plan: "cd34", Gen: 1},
		{TimeUnix: 1700000002, Event: EventRefused, Reason: "unknown stamp ee56"},
	} {
		if err := j.append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(append(bytes.Clone(written), `{"seq":99,"time_un`...))
	lines := bytes.SplitAfter(written, []byte("\n"))
	f.Add(bytes.Join([][]byte{lines[1], lines[0], lines[2]}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid, err := parseJournal(data, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrJournalDamaged) {
				t.Fatalf("refused with %v, want ErrJournalDamaged", err)
			}
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d of a %d-byte journal", valid, len(data))
		}
		again, againValid, err := parseJournal(data[:valid], "fuzz")
		if err != nil {
			t.Fatalf("valid prefix refused: %v", err)
		}
		if againValid != valid || !reflect.DeepEqual(again, records) {
			t.Fatalf("re-reading the valid prefix is no fixpoint: %d records in %d bytes, then %d in %d",
				len(records), valid, len(again), againValid)
		}
		var buf bytes.Buffer
		jl := obs.NewJSONL(&buf)
		for _, rec := range records {
			if err := jl.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		enc, encValid, err := parseJournal(buf.Bytes(), "fuzz")
		if err != nil {
			t.Fatalf("re-encoded journal refused: %v\n%s", err, buf.Bytes())
		}
		if encValid != int64(buf.Len()) || !reflect.DeepEqual(enc, records) {
			t.Fatalf("re-encoded journal reads back differently: %+v, want %+v", enc, records)
		}
	})
}
