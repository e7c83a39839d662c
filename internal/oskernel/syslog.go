package oskernel

// SyscallLog records the results of nondeterministic system calls during an
// instrumented run and serves them back during replay (§2.3 "Logging system
// calls"). Only results are stored — read counts and select ready sets —
// never the data bytes, so no user input leaves the machine.
//
// Reads and selects are kept in separate queues. During replay the engine
// may wander onto a wrong path and issue syscalls out of order; per-kind
// queues keep consumption aligned well enough that the branch-log mismatch
// aborts the run before the skew matters.
type SyscallLog struct {
	reads     []int64
	selects   [][]int
	readPos   int
	selectPos int
}

// NewSyscallLog returns an empty log ready for recording.
func NewSyscallLog() *SyscallLog { return &SyscallLog{} }

// Snapshot exports the recorded results for serialization.
func (l *SyscallLog) Snapshot() (reads []int64, selects [][]int) {
	reads = append([]int64(nil), l.reads...)
	for _, s := range l.selects {
		selects = append(selects, append([]int(nil), s...))
	}
	return reads, selects
}

// SyscallLogFromData reconstructs a log from a Snapshot, rewound for replay.
func SyscallLogFromData(reads []int64, selects [][]int) *SyscallLog {
	l := &SyscallLog{}
	l.reads = append(l.reads, reads...)
	for _, s := range selects {
		l.selects = append(l.selects, append([]int(nil), s...))
	}
	return l
}

func (l *SyscallLog) appendRead(n int64) { l.reads = append(l.reads, n) }

func (l *SyscallLog) appendSelect(ready []int) {
	cp := append([]int{}, ready...)
	l.selects = append(l.selects, cp)
}

func (l *SyscallLog) nextRead() (int64, bool) {
	if l.readPos >= len(l.reads) {
		return 0, false
	}
	v := l.reads[l.readPos]
	l.readPos++
	return v, true
}

func (l *SyscallLog) nextSelect() ([]int, bool) {
	if l.selectPos >= len(l.selects) {
		return nil, false
	}
	v := l.selects[l.selectPos]
	l.selectPos++
	return v, true
}

// Rewind resets replay cursors to the beginning; the replay engine calls it
// before every new run.
func (l *SyscallLog) Rewind() { l.readPos, l.selectPos = 0, 0 }

// Clone returns a view over the same recorded results with fresh, independent
// replay cursors. The backing result slices are shared and must no longer be
// appended to; each replay run consumes its own clone.
func (l *SyscallLog) Clone() *SyscallLog {
	return &SyscallLog{reads: l.reads, selects: l.selects}
}

// NumReads returns how many read() results were recorded.
func (l *SyscallLog) NumReads() int { return len(l.reads) }

// NumSelects returns how many select() results were recorded.
func (l *SyscallLog) NumSelects() int { return len(l.selects) }

// SizeBytes estimates the storage cost of the log: 2 bytes per read count
// (counts are small) and 1 byte per fd in each select set plus a 1-byte
// length, matching the paper's observation that syscall-result logging adds
// only marginally to the branch log.
func (l *SyscallLog) SizeBytes() int64 {
	total := int64(2 * len(l.reads))
	for _, s := range l.selects {
		total += 1 + int64(len(s))
	}
	return total
}
