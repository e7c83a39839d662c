package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Disasm renders the compiled program as a register-IR listing: the constant
// pools, then each code body split into labeled basic blocks of numbered
// instructions — the exact instruction array the bytecode VM executes, after
// superinstruction fusion. Branch and short-circuit
// instructions carry their branch-site annotation (site ID, kind, source
// position) and every nonzero step charge is shown in a +N column; a fused
// instruction's charge is the sum over its constituents, which are listed in
// a trailing `; = a+b+c` comment. The listing therefore exposes exactly what
// the VM precomputes: where instrumentation fires, where the step budget is
// charged, and which tree-walker operations each superinstruction batches.
// The output is deterministic for a given program and is pinned by a golden
// file in testdata.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s\n", p.Src.Hash())

	fmt.Fprintf(&b, "\nstrings (%d):\n", len(p.Strings))
	for i, s := range p.Strings {
		fmt.Fprintf(&b, "  s%d: %s\n", i, strconv.Quote(s))
	}

	fmt.Fprintf(&b, "\nglobals (%d):\n", len(p.Src.Globals))
	for i, g := range p.Src.Globals {
		if g.IsArray {
			fmt.Fprintf(&b, "  g%d: %s[%d]\n", i, g.Name, g.Size)
		} else {
			fmt.Fprintf(&b, "  g%d: %s\n", i, g.Name)
		}
	}

	if len(p.RInit) > 0 {
		fmt.Fprintf(&b, "\ninit regs=%d:\n", p.InitRegs)
		p.disasmCode(&b, p.RInit)
	}

	for _, fc := range p.Funcs {
		var params []string
		for _, prm := range fc.Decl.Params {
			params = append(params, prm.Decl.Name)
		}
		fmt.Fprintf(&b, "\nfunc %s(%s) regs=%d slots=%d:\n",
			fc.Decl.Name, strings.Join(params, ", "), fc.NumRegs, fc.Decl.NumSlots)
		p.disasmCode(&b, fc.RCode)
	}
	return b.String()
}

// blockLabels assigns a basic-block label to every leader instruction: index
// 0, every jump/branch target, and every instruction following a control
// transfer. Labels are numbered in instruction order.
func blockLabels(code []RInstr) map[int32]string {
	leader := make(map[int32]bool, 8)
	leader[0] = true
	for i, in := range code {
		switch in.Op {
		case RBranch:
			leader[in.B] = true
			leader[in.C] = true
			leader[int32(i+1)] = true
		case RCmpBranch:
			leader[in.C] = true
			leader[int32(in.Val)] = true
			leader[int32(i+1)] = true
		case RJump, RShortCircuit:
			if in.Op == RJump {
				leader[in.A] = true
			} else {
				leader[in.C] = true
			}
			leader[int32(i+1)] = true
		case RRet, RRetZero:
			leader[int32(i+1)] = true
		}
	}
	labels := make(map[int32]string, len(leader))
	n := 0
	for i := range code {
		if leader[int32(i)] {
			labels[int32(i)] = "L" + strconv.Itoa(n)
			n++
		}
	}
	return labels
}

// disasmCode prints one code body as labeled blocks of instructions.
func (p *Program) disasmCode(b *strings.Builder, code []RInstr) {
	labels := blockLabels(code)
	for i := range code {
		in := &code[i]
		if l, ok := labels[int32(i)]; ok {
			fmt.Fprintf(b, "%s:\n", l)
		}
		steps := ""
		if in.Steps != 0 {
			steps = "+" + strconv.Itoa(int(in.Steps))
		}
		line := fmt.Sprintf("  %4d %4s  %-10s %s", i, steps, in.Op, p.operands(in, labels))
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
}

// gname resolves a global index to its source name for ; comments.
func (p *Program) gname(i int32) string {
	if int(i) < len(p.Src.Globals) {
		return p.Src.Globals[i].Name
	}
	return "?"
}

// src renders one moded operand. Register/immediate modes are
// self-describing; global modes carry the global's name inline since there is
// no room for a trailing comment per operand.
func (p *Program) src(m SrcMode, x int32) string {
	switch m {
	case SrcReg:
		return "r" + strconv.Itoa(int(x))
	case SrcLocal:
		return "slot" + strconv.Itoa(int(x))
	case SrcGlobal:
		return fmt.Sprintf("g%d(%s)", x, p.gname(x))
	case SrcConst:
		return strconv.Itoa(int(x))
	case SrcGPtr:
		return fmt.Sprintf("&g%d(%s)", x, p.gname(x))
	case SrcLAddr:
		return "&slot" + strconv.Itoa(int(x))
	}
	return "?"
}

// dst renders the `rN = ` destination prefix, or nothing when the result is
// discarded (Dst < 0).
func dst(in *RInstr) string {
	if in.Dst < 0 {
		return ""
	}
	return "r" + strconv.Itoa(int(in.Dst)) + " = "
}

// fused renders the `; = a+b+c` constituent list of a fused or folded
// instruction, or nothing for a plain one.
func fused(in *RInstr) string {
	if len(in.Sub) <= 1 {
		return ""
	}
	parts := make([]string, len(in.Sub))
	for i, op := range in.Sub {
		parts[i] = op.String()
	}
	return "  ; = " + strings.Join(parts, "+")
}

// operands renders the operand fields an instruction actually uses, with the
// pool entry or branch site it refers to — and, for fused superinstructions,
// the constituent ops — as trailing ; comments.
func (p *Program) operands(in *RInstr, labels map[int32]string) string {
	var body string
	switch in.Op {
	case RConst:
		body = dst(in) + strconv.FormatInt(in.Val, 10)
	case RStr:
		body = fmt.Sprintf("%ss%d  ; %s", dst(in), in.A, strconv.Quote(p.Strings[in.A]))
	case RLoadLocal:
		body = fmt.Sprintf("%sslot%d", dst(in), in.A)
	case RLoadGlobal:
		body = fmt.Sprintf("%sg%d  ; %s", dst(in), in.A, p.gname(in.A))
	case RGlobalPtr:
		body = fmt.Sprintf("%s&g%d  ; %s", dst(in), in.A, p.gname(in.A))
	case RAddrLocal:
		body = fmt.Sprintf("%s&slot%d", dst(in), in.A)
	case RAddrLocalArr:
		body = fmt.Sprintf("%sarr slot%d", dst(in), in.A)
	case RAddrIndex:
		body = fmt.Sprintf("%s&%s[%s]", dst(in), p.src(in.AM, in.A), p.src(in.BM, in.B))
	case RAddrDeref:
		body = fmt.Sprintf("%s&*r%d", dst(in), in.A)
	case RLoadIndex:
		body = fmt.Sprintf("%s%s[%s]", dst(in), p.src(in.AM, in.A), p.src(in.BM, in.B))
	case RLoadDeref:
		body = fmt.Sprintf("%s*r%d", dst(in), in.A)
	case RStoreLocal:
		body = fmt.Sprintf("slot%d = %s", in.A, p.src(in.BM, in.B))
	case RStoreGlobal:
		body = fmt.Sprintf("g%d = %s  ; %s", in.A, p.src(in.BM, in.B), p.gname(in.A))
	case RStoreCell:
		body = fmt.Sprintf("*r%d = %s", in.A, p.src(in.BM, in.B))
	case RStoreLocalOp:
		body = fmt.Sprintf("%sslot%d %v= %s", dst(in), in.A, in.Kind, p.src(in.BM, in.B))
	case RStoreGlobalOp:
		body = fmt.Sprintf("%sg%d %v= %s  ; %s", dst(in), in.A, in.Kind, p.src(in.BM, in.B), p.gname(in.A))
	case RStoreCellOp:
		body = fmt.Sprintf("%s*r%d %v= %s", dst(in), in.A, in.Kind, p.src(in.BM, in.B))
	case RZeroLocal:
		body = fmt.Sprintf("slot%d = 0", in.A)
	case RAllocArr:
		body = fmt.Sprintf("slot%d cells=%d  ; %s", in.A, in.Val, in.Name)
	case RIncLocal:
		body = fmt.Sprintf("%sslot%d %+d", dst(in), in.A, in.Val)
	case RIncCell:
		body = fmt.Sprintf("%s*r%d %+d", dst(in), in.A, in.Val)
	case RUnary:
		body = fmt.Sprintf("%s%v %s", dst(in), in.Kind, p.src(in.AM, in.A))
	case RBinary:
		body = fmt.Sprintf("%s%s %v %s", dst(in), p.src(in.AM, in.A), in.Kind, p.src(in.BM, in.B))
	case RBool:
		body = fmt.Sprintf("%sbool %s", dst(in), p.src(in.AM, in.A))
	case RShortCircuit:
		body = fmt.Sprintf("%s%v %s -> %s  ; site %s", dst(in), in.Kind, p.src(in.AM, in.A), labels[in.C], in.Site)
	case RBranch:
		body = fmt.Sprintf("%s then=%s else=%s  ; site %s", p.src(in.AM, in.A), labels[in.B], labels[in.C], in.Site)
	case RJump:
		body = "-> " + labels[in.A]
	case RCall:
		body = fmt.Sprintf("%s%s regs=[r%d..r%d)", dst(in), in.Fn.Decl.Name, in.A, in.A+in.B)
	case RCallB:
		body = fmt.Sprintf("%s%s regs=[r%d..r%d)", dst(in), in.Name, in.A, in.A+in.B)
	case RRet:
		body = p.src(in.AM, in.A)
	case RCmpBranch:
		body = fmt.Sprintf("%s %v %s then=%s else=%s  ; site %s",
			p.src(in.AM, in.A), in.Kind, p.src(in.BM, in.B), labels[in.C], labels[int32(in.Val)], in.Site)
	case RBinStoreLocal:
		body = fmt.Sprintf("%sslot%d = %s %v %s", dst(in), in.C, p.src(in.AM, in.A), in.Kind, p.src(in.BM, in.B))
	case RBinStoreGlobal:
		body = fmt.Sprintf("%sg%d = %s %v %s  ; %s",
			dst(in), in.C, p.src(in.AM, in.A), in.Kind, p.src(in.BM, in.B), p.gname(in.C))
	case RStoreIndex:
		body = fmt.Sprintf("%s[%s] = %s", p.src(in.AM, in.A), p.src(in.BM, in.B), p.src(in.CM, in.C))
	case RIncIndex:
		body = fmt.Sprintf("%s%s[%s] %+d", dst(in), p.src(in.AM, in.A), p.src(in.BM, in.B), in.Val)
	}
	return body + fused(in)
}
