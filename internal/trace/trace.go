// Package trace implements the branch log: one bit per executed instrumented
// branch, buffered in a 4096-byte buffer that is flushed to (simulated)
// stable storage when full — the exact format of §4 ("a bit per branch in a
// large buffer... a buffer of 4KB in order to avoid writing to disk too
// often. We do not use any form of online compression"). The buffer is
// allocated on demand, so a run that logs a few bits pays for a few bytes.
package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
)

// BufferSize is the logger's flush granularity in bytes (§4).
const BufferSize = 4096

// Trace is a completed branch log: the bit sequence of taken/not-taken
// directions of instrumented branches, in execution order.
type Trace struct {
	bits []byte
	n    int64
}

// FromBytes reconstructs a trace from its packed byte form and bit count,
// as produced by Bytes and Len (recording deserialization).
func FromBytes(bits []byte, n int64) *Trace {
	if n < 0 {
		n = 0
	}
	if max := int64(len(bits)) * 8; n > max {
		n = max
	}
	return &Trace{bits: bits, n: n}
}

// Len returns the number of recorded bits.
func (t *Trace) Len() int64 { return t.n }

// Bit returns the i-th recorded bit; out-of-range reads return false.
func (t *Trace) Bit(i int64) bool {
	if i < 0 || i >= t.n {
		return false
	}
	return t.bits[i>>3]&(1<<uint(i&7)) != 0
}

// Bytes returns the packed bit storage (ceil(n/8) bytes).
func (t *Trace) Bytes() []byte { return t.bits }

// SizeBytes returns the storage footprint in bytes.
func (t *Trace) SizeBytes() int64 { return int64(len(t.bits)) }

// String implements fmt.Stringer.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%d bits, %d bytes}", t.n, len(t.bits))
}

// CompressionRatio gzips the log and returns raw/compressed, reproducing the
// paper's 10-20x observation for branch logs. Tiny logs report 1.
func (t *Trace) CompressionRatio() float64 {
	if len(t.bits) == 0 {
		return 1
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(t.bits); err != nil {
		return 1
	}
	if err := zw.Close(); err != nil {
		return 1
	}
	if buf.Len() == 0 {
		return 1
	}
	return float64(len(t.bits)) / float64(buf.Len())
}

// Writer accumulates branch bits through the flush buffer, counting flushes.
// The buffered write path is deliberately real work — set a bit, advance a
// cursor, occasionally copy out the buffer — because the paper's
// instrumentation overhead measurements are measurements of exactly this
// code path.
//
// The buffer grows on demand: it starts at 8 bytes and doubles as bits
// arrive, up to the flush size, so a run that logs 21 bits allocates 8
// bytes rather than 4KB. Growth never moves a flush point: the buffer
// flushes when it holds exactly the flush size in bits, as a buffer
// allocated whole would.
type Writer struct {
	buf     []byte
	size    int // flush size in bytes; buf grows up to it
	bitPos  int // bit position within buf
	flushed []byte
	flushes int
}

// minGrow is the buffer's first allocation in bytes (the allocator's
// smallest size class).
const minGrow = 8

// NewWriter returns an empty Writer with the paper's 4KB flush buffer.
func NewWriter() *Writer { return NewWriterSize(BufferSize) }

// NewWriterSize returns a Writer with a custom flush-buffer size, for the
// buffer-size ablation. Sizes below 1 byte are clamped.
func NewWriterSize(bufBytes int) *Writer {
	if bufBytes < 1 {
		bufBytes = 1
	}
	return &Writer{buf: make([]byte, min(minGrow, bufBytes)), size: bufBytes}
}

// Append records one branch direction. Its common path sets a bit and
// advances the cursor; the rare full buffer is spill's work, kept out of
// line so that the common path stays a few instructions.
func (w *Writer) Append(taken bool) {
	if taken {
		w.buf[w.bitPos>>3] |= 1 << (w.bitPos & 7)
	}
	w.bitPos++
	if w.bitPos == len(w.buf)*8 {
		w.spill()
	}
}

// spill empties a full buffer: below the flush size it doubles the buffer,
// at the flush size it flushes it.
//
//go:noinline
func (w *Writer) spill() {
	if len(w.buf) < w.size {
		buf := make([]byte, min(2*len(w.buf), w.size))
		copy(buf, w.buf)
		w.buf = buf
		return
	}
	w.flushed = append(w.flushed, w.buf...)
	clear(w.buf)
	w.bitPos = 0
	w.flushes++
}

// Bits returns the number of bits appended so far.
func (w *Writer) Bits() int64 {
	return int64(len(w.flushed))*8 + int64(w.bitPos)
}

// Flushes returns how many full-buffer flushes have happened.
func (w *Writer) Flushes() int { return w.flushes }

// Finish flushes the partial buffer and returns the completed trace. The
// trace takes the writer's storage over instead of copying it (a run that
// never flushed hands over its buffer as is), so nothing may be appended
// after Finish.
func (w *Writer) Finish() *Trace {
	partial := (w.bitPos + 7) / 8
	bits := w.buf[:partial:partial]
	if len(w.flushed) > 0 {
		bits = append(w.flushed, bits...)
	}
	return &Trace{bits: bits, n: w.Bits()}
}

// Reader walks a trace bit by bit; the replay engine resets it per run.
type Reader struct {
	t   *Trace
	pos int64
}

// NewReader returns a reader positioned at the first bit.
func NewReader(t *Trace) *Reader { return &Reader{t: t} }

// Next consumes and returns the next bit; ok is false past the end.
func (r *Reader) Next() (bit bool, ok bool) {
	if r.pos >= r.t.Len() {
		return false, false
	}
	b := r.t.Bit(r.pos)
	r.pos++
	return b, true
}

// Pos returns how many bits have been consumed.
func (r *Reader) Pos() int64 { return r.pos }

// Rewind restarts from the first bit.
func (r *Reader) Rewind() { r.pos = 0 }

// Exhausted reports whether every bit has been consumed.
func (r *Reader) Exhausted() bool { return r.pos >= r.t.Len() }
