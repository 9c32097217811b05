package overlay_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

const checkTraceFP = "f00dfeed00112233"

// checkSetup packs insts records of gzip and returns them with a stride
// value-predicting baseline machine, plus the overlays of that machine with
// and without its value predictor.
func checkSetup(t testing.TB, insts int) (*trace.SoA, uarch.Config, *overlay.Overlay, *overlay.Overlay) {
	t.Helper()
	wc, _ := workload.SuiteConfig("gzip")
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp
	plain, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	return soa, cfg, plain, spec
}

// TestCheckRejectsMutants: every overlay ComputeSpec produces passes Check,
// and each mutant below — a frame a peer could send with a valid checksum,
// which DecodeWire accepts — fails it.
func TestCheckRejectsMutants(t *testing.T) {
	soa, cfg, plain, spec := checkSetup(t, 50_000)
	if err := plain.Check(cfg.Pred, cfg.Mem, nil); err != nil {
		t.Fatalf("computed overlay fails Check: %v", err)
	}
	if err := spec.Check(cfg.Pred, cfg.Mem, cfg.VPred); err != nil {
		t.Fatalf("computed value-speculation overlay fails Check: %v", err)
	}

	first := func(ok func(i int) bool) int {
		for i := 0; i < soa.Len(); i++ {
			if ok(i) {
				return i
			}
		}
		t.Fatal("no record of the kind the mutant needs")
		return -1
	}
	load := first(func(i int) bool { return soa.Class(i) == isa.Load })
	alu := first(func(i int) bool { return soa.Class(i) == isa.IntALU && spec.Code[i]&overlay.IMask == 0 })
	branch := first(func(i int) bool { return soa.Class(i) == isa.Branch })
	crossing := first(func(i int) bool { return i > 0 && spec.Code[i]&overlay.IMask != 0 })

	mutants := []struct {
		name string
		base *overlay.Overlay
		edit func(ov *overlay.Overlay)
	}{
		{"predictor fingerprint", spec, func(ov *overlay.Overlay) { ov.PredFP ^= 1 }},
		{"cache fingerprint", spec, func(ov *overlay.Overlay) { ov.MemFP ^= 1 }},
		{"value-predictor fingerprint", spec, func(ov *overlay.Overlay) { ov.VPredFP ^= 1 }},
		{"load without a D class", spec, func(ov *overlay.Overlay) { ov.Code[load] &^= overlay.DMask }},
		{"D class on an ALU record", spec, func(ov *overlay.Overlay) { ov.Code[alu] |= 1 }},
		{"misprediction bit on a load", spec, func(ov *overlay.Overlay) { ov.Code[load] |= overlay.DirMiss }},
		{"both misprediction bits", spec, func(ov *overlay.Overlay) { ov.Code[branch] |= overlay.AnyMiss }},
		{"value bit without a value predictor", plain, func(ov *overlay.Overlay) { ov.Code[load] |= overlay.VPredHit }},
		{"value misspeculation on every store", spec, func(ov *overlay.Overlay) {
			for i := range ov.Code {
				if soa.Class(i) == isa.Store {
					ov.Code[i] |= overlay.VPredMiss
				}
			}
		}},
		{"both value bits", spec, func(ov *overlay.Overlay) { ov.Code[load] |= overlay.VPredHit | overlay.VPredMiss }},
		{"no I class at a line crossing", spec, func(ov *overlay.Overlay) { ov.Code[crossing] &^= overlay.IMask }},
		{"I class inside a line", spec, func(ov *overlay.Overlay) { ov.Code[alu] |= 1 << overlay.IShift }},
	}
	for _, m := range mutants {
		mut := *m.base
		mut.Code = append([]uint8(nil), m.base.Code...)
		m.edit(&mut)
		ov, err := overlay.DecodeWire(mut.EncodeWire(checkTraceFP), checkTraceFP, soa)
		if err != nil {
			t.Fatalf("%s: DecodeWire: %v", m.name, err)
		}
		vp := cfg.VPred
		if m.base == plain {
			vp = nil
		}
		if err := ov.Check(cfg.Pred, cfg.Mem, vp); err == nil {
			t.Errorf("%s: Check accepted the mutant", m.name)
		}
	}
}

// FuzzDecodeOverlayWire: a frame DecodeWire accepts re-encodes to the same
// bytes, and neither Check nor replay of the decoded overlay panics. Frames
// are tried as given and with their checksum re-signed, so mutations reach
// the fields behind the CRC.
func FuzzDecodeOverlayWire(f *testing.F) {
	soa, cfg, plain, spec := checkSetup(f, 400)
	for _, ov := range []*overlay.Overlay{plain, spec} {
		frame := ov.EncodeWire(checkTraceFP)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		try := func(frame []byte) {
			ov, err := overlay.DecodeWire(frame, checkTraceFP, soa)
			if err != nil {
				return
			}
			if again := ov.EncodeWire(checkTraceFP); !bytes.Equal(again, frame) {
				t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, frame)
			}
			machine := cfg
			if ov.VPredFP == 0 {
				machine.VPred = nil
			}
			ov.Check(machine.Pred, machine.Mem, machine.VPred) //nolint:errcheck // must not panic
			// Errors are fine; replay must only not panic or run away.
			uarch.Run(soa.Reader(), machine, uarch.Options{Overlay: ov, MaxCycles: 1 << 20}) //nolint:errcheck
		}
		try(data)
		if len(data) >= 12 {
			signed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(signed[len(signed)-4:], crc32.Checksum(signed[8:len(signed)-4], crcTable))
			try(signed)
		}
	})
}
