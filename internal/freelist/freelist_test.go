package freelist

import (
	"runtime"
	"testing"
)

// TestListSurvivesGCAndBounds checks that a value Put before two garbage
// collections is the one Get returns after them (a sync.Pool would have
// dropped it), that Get takes the most recently put value that fits, and
// that the list never holds more than GOMAXPROCS values, dropping the oldest
// first.
func TestListSurvivesGCAndBounds(t *testing.T) {
	var l List[*int]
	v := new(int)
	l.Put(v)
	runtime.GC()
	runtime.GC()
	if got, ok := l.Get(nil); !ok || got != v {
		t.Fatal("Get after two collections did not return the value that was Put")
	}
	if _, ok := l.Get(nil); ok {
		t.Fatal("Get on an empty list reported a value")
	}

	n := runtime.GOMAXPROCS(0)
	var put []*int
	for i := 0; i < n+3; i++ {
		put = append(put, new(int))
		*put[i] = i
		l.Put(put[i])
		if l.Len() > n {
			t.Fatalf("list holds %d values, GOMAXPROCS is %d", l.Len(), n)
		}
	}
	oldest := put[len(put)-n]
	if got, ok := l.Get(func(p *int) bool { return p == oldest }); !ok || got != oldest {
		t.Fatal("Get did not return the one value that fits")
	}
	for i := 1; i < n; i++ {
		if got, _ := l.Get(nil); got != put[len(put)-i] {
			t.Fatalf("Get %d did not return the %d-th most recently Put value", i, i)
		}
	}
	if l.Len() != 0 {
		t.Errorf("the list kept %d values past GOMAXPROCS", l.Len())
	}
}
