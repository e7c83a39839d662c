package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans stay in memory while the
// benchmark runs and are written out at the end, so writing them costs
// nothing inside the timed region.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the benchmark started
	DurNS   int64  `json:"dur_ns"`
}

// spans records spans when on; when off every method is a no-op, so the
// end-to-end run pays nothing for tracing.
type spans struct {
	on   bool
	t0   time.Time
	list []span
}

func newSpans(on bool) *spans { return &spans{on: on, t0: time.Now()} }

func (s *spans) start(name string, parent int) int {
	if !s.on {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name,
		StartNS: time.Since(s.t0).Nanoseconds()})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if id < 0 {
		return
	}
	sp := &s.list[id]
	sp.DurNS = time.Since(s.t0).Nanoseconds() - sp.StartNS
}

// mark and truncate drop the spans recorded since mark, for work the
// benchmark does but does not measure.
func (s *spans) mark() int         { return len(s.list) }
func (s *spans) truncate(mark int) { s.list = s.list[:mark] }

func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, float64(sp.DurNS))
		}
	}
	return out
}

// total and median are in nanoseconds.
func (s *spans) total(name string) float64 {
	var t float64
	for _, d := range s.durations(name) {
		t += d
	}
	return t
}

func (s *spans) median(name string) float64 { return median(s.durations(name)) }

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
