// Package freelist keeps idle values between uses on a bounded list that,
// unlike a sync.Pool, survives garbage collection. A developer site collects
// between bug reports, and a sync.Pool empties across two collections, so
// nearly every report would start from fresh buffers, solvers and arenas.
package freelist

import (
	"runtime"
	"slices"
	"sync"
)

// List holds at most GOMAXPROCS idle values, one per user that can run at
// once, most recently returned last. The zero List is empty and ready to use;
// it is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	list []T
}

// Get removes and returns the most recently put value that fits accepts
// (every value, when fits is nil). ok is false when no idle value fits.
func (l *List[T]) Get(fits func(T) bool) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.list) - 1; i >= 0; i-- {
		if fits == nil || fits(l.list[i]) {
			v = l.list[i]
			l.list = slices.Delete(l.list, i, i+1)
			return v, true
		}
	}
	return v, false
}

// Put returns v to the list; a full list drops its oldest value. The caller
// must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := runtime.GOMAXPROCS(0); len(l.list) >= n {
		l.list = slices.Delete(l.list, 0, len(l.list)-n+1)
	}
	l.list = append(l.list, v)
}

// Len returns the number of idle values held.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.list)
}
