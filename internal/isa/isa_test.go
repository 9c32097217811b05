package isa

import (
	"strings"
	"testing"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		IntALU: "IntALU", IntMul: "IntMul", IntDiv: "IntDiv",
		FPAdd: "FPAdd", FPMul: "FPMul", FPDiv: "FPDiv",
		Load: "Load", Store: "Store", Branch: "Branch", Jump: "Jump",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(200).String(); !strings.Contains(got, "200") {
		t.Errorf("invalid class String() = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
		wantMem := c == Load || c == Store
		if c.IsMem() != wantMem {
			t.Errorf("%v.IsMem() = %v", c, c.IsMem())
		}
		wantCtl := c == Branch || c == Jump
		if c.IsControl() != wantCtl {
			t.Errorf("%v.IsControl() = %v", c, c.IsControl())
		}
	}
	if Class(NumClasses).Valid() {
		t.Error("NumClasses should not be a valid class")
	}
}

func TestValidate(t *testing.T) {
	valid := []Inst{
		{PC: 0x1000, Class: IntALU, Src1: 1, Src2: 2, Dst: 3},
		{PC: 0x1004, Class: Load, Src1: 1, Src2: NoReg, Dst: 2, Addr: 0x8000},
		{PC: 0x1008, Class: Store, Src1: 1, Src2: 2, Dst: NoReg, Addr: 0x8000},
		{PC: 0x100c, Class: Branch, Src1: 1, Src2: NoReg, Dst: NoReg, Target: 0x1000, Taken: true},
		{PC: 0x1010, Class: Jump, Src1: NoReg, Src2: NoReg, Dst: NoReg, Target: 0x2000, Taken: true},
	}
	for i, in := range valid {
		if err := in.Validate(); err != nil {
			t.Errorf("valid record %d rejected: %v", i, err)
		}
	}

	invalid := []struct {
		name string
		in   Inst
	}{
		{"bad class", Inst{Class: NumClasses, Src1: NoReg, Src2: NoReg, Dst: NoReg}},
		{"register out of range", Inst{Class: IntALU, Src1: 64, Src2: NoReg, Dst: NoReg}},
		{"negative register", Inst{Class: IntALU, Src1: -2, Src2: NoReg, Dst: NoReg}},
		{"load without address", Inst{Class: Load, Src1: NoReg, Src2: NoReg, Dst: 1}},
		{"alu with address", Inst{Class: IntALU, Src1: NoReg, Src2: NoReg, Dst: 1, Addr: 4}},
		{"branch without target", Inst{Class: Branch, Src1: NoReg, Src2: NoReg, Dst: NoReg}},
		{"alu with target", Inst{Class: IntALU, Src1: NoReg, Src2: NoReg, Dst: 1, Target: 8}},
		{"alu taken", Inst{Class: IntALU, Src1: NoReg, Src2: NoReg, Dst: 1, Taken: true}},
	}
	for _, tc := range invalid {
		if err := tc.in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.in)
		}
	}
}

func TestStringFormats(t *testing.T) {
	ld := Inst{PC: 0x10, Class: Load, Src1: 1, Src2: NoReg, Dst: 2, Addr: 0x800}
	if s := ld.String(); !strings.Contains(s, "Load") || !strings.Contains(s, "0x800") {
		t.Errorf("load String() = %q", s)
	}
	br := Inst{PC: 0x14, Class: Branch, Src1: 1, Src2: NoReg, Dst: NoReg, Target: 0x10, Taken: true}
	if s := br.String(); !strings.Contains(s, "T->") {
		t.Errorf("taken branch String() = %q", s)
	}
	br.Taken = false
	if s := br.String(); !strings.Contains(s, "N->") {
		t.Errorf("not-taken branch String() = %q", s)
	}
	alu := Inst{PC: 0x18, Class: IntALU, Src1: 1, Src2: 2, Dst: 3}
	if s := alu.String(); !strings.Contains(s, "IntALU") {
		t.Errorf("alu String() = %q", s)
	}
}
