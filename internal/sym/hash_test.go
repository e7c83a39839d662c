package sym

import (
	"testing"
	"unsafe"
)

// hashExpr builds one expression over a byte variable and a syscall
// variable, using every kind of node.
func hashExpr(b, s *Input) Expr {
	sum := Add(Mul(b, NewConst(31)), NewUn(OpNeg, s))
	return Lt(NewBin(OpMod, sum, NewConst(1<<20)), NewConst(-5))
}

// TestHashKeysOnCoordinates checks that a variable's hash is its
// coordinate's: an expression over variables made unnumbered (ID -1)
// hashes the same once they are numbered, and the same as a node-for-node
// rebuild over other variables of the same coordinates.
func TestHashKeysOnCoordinates(t *testing.T) {
	bv := ByteInput(-1, "stdin", 3, 0, 255)
	b, s := &bv, NewInput(-1, "sys:read:0", -1, 64)
	e := hashExpr(b, s)
	before := Hash(e)
	b.ID, s.ID = 4, 9
	if got := Hash(e); got != before {
		t.Errorf("numbering the variables moved the hash from %#x to %#x", before, got)
	}
	rv := ByteInput(12, "stdin", 3, 0, 255)
	rebuilt := hashExpr(&rv, NewInput(13, "sys:read:0", -1, 64))
	if rebuilt == e {
		t.Fatal("the rebuild shares its root with the original")
	}
	if got := Hash(rebuilt); got != before {
		t.Errorf("a rebuild over the same coordinates hashes %#x, the original %#x", got, before)
	}
	ov := ByteInput(-1, "stdin", 4, 0, 255)
	if Hash(hashExpr(&ov, s)) == before {
		t.Error("another byte of the stream hashes like the original")
	}
}

// TestHashSeparatesComparisons checks that on the grid stream:off REL c
// (64 offsets, 256 constants, three relations) no two distinct expressions
// share a hash. A hash linear in offsets, constants and operand hashes
// collides on this grid; so does a variable hash that ignores the offset.
func TestHashSeparatesComparisons(t *testing.T) {
	seen := make(map[uint32]Expr, 3*64*256)
	for _, op := range []Op{OpEq, OpNe, OpLt} {
		for off := int64(0); off < 64; off++ {
			v := ByteInput(-1, "conn0", off, 0, 255)
			for c := int64(0); c < 256; c++ {
				e := NewBin(op, &v, NewConst(c))
				if prev, dup := seen[Hash(e)]; dup {
					t.Fatalf("%v and %v share hash %#x", prev, e, Hash(e))
				}
				seen[Hash(e)] = e
			}
		}
	}
}

// TestNodeSizes pins the node sizes on 64-bit platforms: the hash fits
// beside a 32-bit node count, so hashing nodes at construction makes no
// node bigger.
func TestNodeSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Bin", unsafe.Sizeof(Bin{}), 48},
		{"Un", unsafe.Sizeof(Un{}), 32},
		{"Input", unsafe.Sizeof(Input{}), 56},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
