// Package isa defines the dynamic instruction record that flows through the
// whole system: the workload generator emits it, traces store it, the
// cycle-level simulator times it, and the interval-analysis model inspects
// its dependence structure.
//
// The record is deliberately semantics-free. Interval analysis — like the
// trace-driven simulator the paper uses — never needs instruction *results*,
// only instruction classes (to pick functional-unit latencies), register
// names (to recover true dependences), effective addresses (to drive the
// data cache and memory dependences), and branch outcomes (to drive the
// predictor). This mirrors an Alpha-like RISC trace stripped of values.
package isa

import "fmt"

// Class identifies the execution resource an instruction needs.
type Class uint8

// Instruction classes. The set matches the functional-unit mix of the
// paper's 4-wide baseline machine.
const (
	IntALU     Class = iota // simple integer op: add, logical, compare, shift
	IntMul                  // integer multiply
	IntDiv                  // integer divide (long, typically unpipelined)
	FPAdd                   // floating-point add/sub/convert
	FPMul                   // floating-point multiply
	FPDiv                   // floating-point divide/sqrt
	Load                    // memory read
	Store                   // memory write
	Branch                  // conditional branch (direction matters)
	Jump                    // unconditional direct jump/call/return
	NumClasses              // count sentinel; not a real class
)

var classNames = [NumClasses]string{
	"IntALU", "IntMul", "IntDiv", "FPAdd", "FPMul", "FPDiv",
	"Load", "Store", "Branch", "Jump",
}

// String returns the class mnemonic.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is one of the defined classes.
func (c Class) Valid() bool { return c < NumClasses }

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsControl reports whether the class redirects instruction fetch.
func (c Class) IsControl() bool { return c == Branch || c == Jump }

// NumRegs is the size of the architectural register file visible in traces.
// 64 covers integer + floating-point files of a RISC machine.
const NumRegs = 64

// NoReg marks an absent register operand.
const NoReg int8 = -1

// Inst is one dynamic instruction.
//
// Register fields are architectural register numbers in [0, NumRegs) or
// NoReg. True (read-after-write) dependences are recovered by matching a
// source register to the most recent earlier instruction writing it, exactly
// as a renaming frontend would.
type Inst struct {
	PC     uint64 // address of the instruction (drives the I-cache and BTB)
	Addr   uint64 // effective address for Load/Store; 0 otherwise
	Target uint64 // branch/jump target PC; 0 otherwise
	Src1   int8   // first source register or NoReg
	Src2   int8   // second source register or NoReg
	Dst    int8   // destination register or NoReg
	Class  Class
	Taken  bool // actual direction for Branch (Jump is always taken)
}

// Validate checks structural well-formedness of the record and returns a
// descriptive error for the first violation found. Traces read from disk are
// validated record by record so corrupt inputs fail loudly instead of
// producing quietly wrong simulations.
func (i *Inst) Validate() error {
	if !i.Class.Valid() {
		return fmt.Errorf("isa: invalid class %d at pc %#x", i.Class, i.PC)
	}
	for _, r := range [3]int8{i.Src1, i.Src2, i.Dst} {
		if r != NoReg && (r < 0 || r >= NumRegs) {
			return fmt.Errorf("isa: register %d out of range at pc %#x", r, i.PC)
		}
	}
	if i.Class.IsMem() && i.Addr == 0 {
		return fmt.Errorf("isa: %v with zero effective address at pc %#x", i.Class, i.PC)
	}
	if !i.Class.IsMem() && i.Addr != 0 {
		return fmt.Errorf("isa: non-memory %v carries address %#x at pc %#x", i.Class, i.Addr, i.PC)
	}
	if i.Class.IsControl() && i.Target == 0 {
		return fmt.Errorf("isa: %v with zero target at pc %#x", i.Class, i.PC)
	}
	if !i.Class.IsControl() && (i.Target != 0 || i.Taken) {
		return fmt.Errorf("isa: non-control %v carries control fields at pc %#x", i.Class, i.PC)
	}
	return nil
}

// String formats the instruction compactly for debugging output.
func (i Inst) String() string {
	switch {
	case i.Class.IsMem():
		return fmt.Sprintf("%#x %v r%d,r%d->r%d [%#x]", i.PC, i.Class, i.Src1, i.Src2, i.Dst, i.Addr)
	case i.Class.IsControl():
		dir := "N"
		if i.Taken || i.Class == Jump {
			dir = "T"
		}
		return fmt.Sprintf("%#x %v r%d,r%d %s->%#x", i.PC, i.Class, i.Src1, i.Src2, dir, i.Target)
	default:
		return fmt.Sprintf("%#x %v r%d,r%d->r%d", i.PC, i.Class, i.Src1, i.Src2, i.Dst)
	}
}
