package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripSmall(t *testing.T) {
	w := NewWriter()
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.Append(b)
	}
	tr := w.Finish()
	if tr.Len() != int64(len(pattern)) {
		t.Fatalf("len: %d", tr.Len())
	}
	for i, want := range pattern {
		if tr.Bit(int64(i)) != want {
			t.Errorf("bit %d: got %v", i, tr.Bit(int64(i)))
		}
	}
	if tr.SizeBytes() != 2 {
		t.Errorf("size: %d bytes", tr.SizeBytes())
	}
}

func TestOutOfRangeBit(t *testing.T) {
	w := NewWriter()
	w.Append(true)
	tr := w.Finish()
	if tr.Bit(-1) || tr.Bit(1) || tr.Bit(100) {
		t.Error("out-of-range bits must read false")
	}
}

func TestFlushBoundary(t *testing.T) {
	w := NewWriter()
	n := BufferSize*8*2 + 5 // two full flushes plus a partial
	for i := 0; i < n; i++ {
		w.Append(i%3 == 0)
	}
	if w.Flushes() != 2 {
		t.Fatalf("flushes: %d", w.Flushes())
	}
	if w.Bits() != int64(n) {
		t.Fatalf("bits: %d", w.Bits())
	}
	tr := w.Finish()
	if tr.Len() != int64(n) {
		t.Fatalf("trace len: %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		if tr.Bit(int64(i)) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
	// Storage: 2 full buffers + 1 partial byte.
	if tr.SizeBytes() != BufferSize*2+1 {
		t.Fatalf("size: %d", tr.SizeBytes())
	}
}

func TestReader(t *testing.T) {
	w := NewWriter()
	bits := []bool{true, true, false, true}
	for _, b := range bits {
		w.Append(b)
	}
	r := NewReader(w.Finish())
	for i, want := range bits {
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("next %d: %v %v", i, got, ok)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("reader should be exhausted")
	}
	if !r.Exhausted() || r.Pos() != 4 {
		t.Errorf("pos: %d exhausted: %v", r.Pos(), r.Exhausted())
	}
	r.Rewind()
	if r.Pos() != 0 || r.Exhausted() {
		t.Error("rewind failed")
	}
	if b, ok := r.Next(); !ok || !b {
		t.Error("first bit after rewind")
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := NewWriter().Finish()
	if tr.Len() != 0 || tr.SizeBytes() != 0 {
		t.Fatalf("empty trace: %v", tr)
	}
	r := NewReader(tr)
	if !r.Exhausted() {
		t.Error("empty trace reader should be exhausted")
	}
	if tr.CompressionRatio() != 1 {
		t.Error("empty trace ratio should be 1")
	}
}

func TestCompressionRatioOnBiasedLog(t *testing.T) {
	// Branch logs are highly biased (loops mostly take one direction); gzip
	// should achieve the paper's 10-20x on such data.
	w := NewWriter()
	for i := 0; i < BufferSize*8*4; i++ {
		w.Append(i%97 == 0) // rare "not taken"
	}
	ratio := w.Finish().CompressionRatio()
	if ratio < 10 {
		t.Errorf("ratio: %.1f, want >= 10 on biased log", ratio)
	}
}

func TestStringer(t *testing.T) {
	w := NewWriter()
	w.Append(true)
	got := w.Finish().String()
	if got != "trace{1 bits, 1 bytes}" {
		t.Errorf("string: %q", got)
	}
}

// TestQuickRoundTrip property-checks arbitrary bit patterns across the flush
// boundary.
func TestQuickRoundTrip(t *testing.T) {
	f := func(pattern []bool, pad uint16) bool {
		w := NewWriter()
		// Shift the pattern deep into the buffer to cross byte boundaries.
		for i := 0; i < int(pad); i++ {
			w.Append(false)
		}
		for _, b := range pattern {
			w.Append(b)
		}
		tr := w.Finish()
		if tr.Len() != int64(int(pad)+len(pattern)) {
			return false
		}
		for i, want := range pattern {
			if tr.Bit(int64(int(pad)+i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWriterSizeAblation(t *testing.T) {
	// Smaller buffers flush more often for the same bit stream; content is
	// unchanged.
	bits := 64 * 8 // 64 bytes of bits
	sizes := []int{1, 8, 64}
	var flushes []int
	for _, sz := range sizes {
		w := NewWriterSize(sz)
		for i := 0; i < bits; i++ {
			w.Append(i%5 == 0)
		}
		tr := w.Finish()
		if tr.Len() != int64(bits) {
			t.Fatalf("size %d: len %d", sz, tr.Len())
		}
		for i := 0; i < bits; i++ {
			if tr.Bit(int64(i)) != (i%5 == 0) {
				t.Fatalf("size %d: bit %d wrong", sz, i)
			}
		}
		flushes = append(flushes, w.Flushes())
	}
	if !(flushes[0] > flushes[1] && flushes[1] > flushes[2]) {
		t.Errorf("flush counts not decreasing with buffer size: %v", flushes)
	}
	if NewWriterSize(0) == nil {
		t.Error("zero size must clamp")
	}
}

// refWriter is the writer with the flush buffer allocated whole up front,
// the reference the on-demand buffer must match bit for bit and flush for
// flush.
type refWriter struct {
	buf     []byte
	bitPos  int
	flushed []byte
	flushes int
}

func (w *refWriter) append(taken bool) {
	if taken {
		w.buf[w.bitPos>>3] |= 1 << uint(w.bitPos&7)
	}
	w.bitPos++
	if w.bitPos == len(w.buf)*8 {
		w.flushed = append(w.flushed, w.buf...)
		for i := range w.buf {
			w.buf[i] = 0
		}
		w.bitPos = 0
		w.flushes++
	}
}

func (w *refWriter) finish() *Trace {
	partial := (w.bitPos + 7) / 8
	bits := append(append([]byte{}, w.flushed...), w.buf[:partial]...)
	return &Trace{bits: bits, n: int64(len(w.flushed))*8 + int64(w.bitPos)}
}

// TestWriterMatchesFixedBuffer feeds random bit sequences around the 4KB
// flush boundary to writers of the default size and two small ablation
// sizes: the on-demand buffer must produce the same bytes, bit count and
// flush count as a buffer allocated whole.
func TestWriterMatchesFixedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 32767, 32768, 32769, 3*32768 + 5} {
		for _, size := range []int{BufferSize, 1, 7} {
			w := NewWriterSize(size)
			ref := &refWriter{buf: make([]byte, size)}
			for range n {
				bit := rng.Intn(2) == 1
				w.Append(bit)
				ref.append(bit)
			}
			if w.Flushes() != ref.flushes {
				t.Errorf("n=%d size=%d: %d flushes, want %d", n, size, w.Flushes(), ref.flushes)
			}
			got, want := w.Finish(), ref.finish()
			if got.Len() != want.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("n=%d size=%d: trace %v differs from the fixed-buffer trace %v", n, size, got, want)
			}
		}
	}
}

// TestWriterGrowsOnDemand pins the allocation the buffer exists to save: a
// few logged bits allocate a few bytes, not the 4KB flush buffer.
func TestWriterGrowsOnDemand(t *testing.T) {
	w := NewWriter()
	for i := range 21 {
		w.Append(i%2 == 0)
	}
	if cap(w.buf) >= BufferSize {
		t.Errorf("21 bits hold a %d-byte buffer", cap(w.buf))
	}
}
