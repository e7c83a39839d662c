package intake

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"pathlog/internal/obs"
)

// JournalName is the journal's filename inside an intake directory.
const JournalName = "journal.jsonl"

// Journal event names. Throttled requests are deliberately not journaled:
// throttling is flow control, not evidence, and a duplicate flood must not
// be able to grow the durable state it is being throttled to protect.
const (
	EventAccepted  = "accepted"
	EventDuplicate = "duplicate"
	EventRefused   = "refused"
)

// ErrJournalDamaged marks a journal whose body (not its final, possibly
// torn line) fails to parse. Replay refuses to proceed past it: counters
// rebuilt from a damaged journal could silently undercount accepted
// reports, which is exactly the loss the journal exists to rule out.
var ErrJournalDamaged = errors.New("intake journal damaged")

// Record is one journal line: an accepted, duplicate or refused ingest
// event. Accepted and duplicate records carry the report's content
// signature and its (program hash, plan fingerprint, generation) bucket;
// refused records carry the refusal reason, naming the stamp that failed.
type Record struct {
	Seq      int64  `json:"seq"`
	TimeUnix int64  `json:"time_unix"`
	Event    string `json:"event"`
	Sig      string `json:"sig,omitempty"`
	Prog     string `json:"prog,omitempty"`
	Plan     string `json:"plan,omitempty"`
	Gen      int    `json:"gen,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// readJournal parses the journal file at path (parseJournal); a missing
// file is an empty journal, not an error.
func readJournal(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("intake: read journal: %w", err)
	}
	return parseJournal(data, path)
}

// parseJournal parses journal bytes, returning the records and the byte
// length of the valid prefix. A final line that is incomplete (no
// terminating newline, or unparseable) is treated as the crash remnant of
// an interrupted append and excluded from the prefix; an unparseable or
// out-of-order record anywhere earlier returns ErrJournalDamaged. Errors
// name the journal as path.
func parseJournal(data []byte, path string) ([]Record, int64, error) {
	var records []Record
	var valid int64
	offset := 0
	for offset < len(data) {
		end := offset
		for end < len(data) && data[end] != '\n' {
			end++
		}
		line := data[offset:end]
		terminated := end < len(data)
		var rec Record
		if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.Event == "" {
			if !terminated {
				// Torn final line: the append was interrupted mid-write.
				break
			}
			return nil, 0, fmt.Errorf("intake: %w: %s record %d: %q", ErrJournalDamaged, path, len(records)+1, line)
		}
		if !terminated {
			// Parsed but unterminated: the newline never hit the disk, so the
			// record's durability is unknown — treat it as the torn tail too.
			break
		}
		if n := len(records); n > 0 && rec.Seq <= records[n-1].Seq {
			return nil, 0, fmt.Errorf("intake: %w: %s record %d: seq %d after %d",
				ErrJournalDamaged, path, n+1, rec.Seq, records[n-1].Seq)
		}
		records = append(records, rec)
		valid = int64(end + 1)
		offset = end + 1
	}
	return records, valid, nil
}

// journal is the append side: an open file written through the shared
// obs.JSONL encoder (which also keeps the record/byte counters the
// metrics surface reports), plus the sequence assignment that makes the
// replayed order checkable.
type journal struct {
	f       *os.File
	path    string
	jl      *obs.JSONL
	nextSeq int64
}

// openJournal replays the journal at path, heals a torn final line by
// truncating to the valid prefix, and opens it for appending. The replayed
// records are returned so the server can rebuild its dedupe table.
func openJournal(path string) (*journal, []Record, error) {
	records, valid, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("intake: open journal: %w", err)
	}
	if info, err := f.Stat(); err == nil && info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("intake: heal journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("intake: open journal: %w", err)
	}
	j := &journal{f: f, path: path, jl: obs.NewJSONL(f), nextSeq: 1}
	j.jl.Seed(int64(len(records)), valid)
	if n := len(records); n > 0 {
		j.nextSeq = records[n-1].Seq + 1
	}
	return j, records, nil
}

// append assigns the next sequence number and writes the record as one
// newline-terminated JSON line through the shared encoder.
func (j *journal) append(rec Record) error {
	rec.Seq = j.nextSeq
	if err := j.jl.Encode(rec); err != nil {
		return fmt.Errorf("intake: append journal: %w", err)
	}
	j.nextSeq++
	return nil
}

// stats reports the journal's record and byte counters.
func (j *journal) stats() (records, bytes int64) {
	return j.jl.Stats()
}

func (j *journal) close() error {
	return j.f.Close()
}
