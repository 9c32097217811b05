package trace

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"intervalsim/internal/isa"
)

// TestWireRoundTrip: EncodeWire → DecodeWire is exact — the decoded SoA
// unpacks to the identical instruction sequence.
func TestWireRoundTrip(t *testing.T) {
	soa := Pack(randomTrace(7, 500))
	data := soa.EncodeWire()
	if len(data) != soa.WireSize() {
		t.Fatalf("frame is %d bytes, WireSize says %d", len(data), soa.WireSize())
	}
	if WireSizeFor(soa.Len()) != soa.WireSize() {
		t.Fatalf("WireSizeFor(%d) = %d, WireSize = %d", soa.Len(), WireSizeFor(soa.Len()), soa.WireSize())
	}
	got, err := DecodeWire(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Unpack(), soa.Unpack()) {
		t.Fatal("decoded trace differs from the original")
	}
}

func TestWireRoundTripEmpty(t *testing.T) {
	soa := Pack(&Trace{})
	got, err := DecodeWire(soa.EncodeWire(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("decoded %d records, want 0", got.Len())
	}
}

// TestWireRejectsCorruption: every single-byte flip anywhere in the frame is
// rejected — by the magic check, the length check, or the checksum.
func TestWireRejectsCorruption(t *testing.T) {
	soa := Pack(randomTrace(11, 64))
	data := soa.EncodeWire()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeWire(mut, 0); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for _, cut := range []int{0, 8, 11, len(data) - 1} {
		if _, err := DecodeWire(data[:cut], 0); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeWire(append(append([]byte(nil), data...), 0), 0); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestWireRecordCap: a frame larger than the caller's record budget is
// refused before any allocation proportional to its claimed size.
func TestWireRecordCap(t *testing.T) {
	soa := Pack(randomTrace(3, 100))
	data := soa.EncodeWire()
	if _, err := DecodeWire(data, 99); err == nil {
		t.Fatal("100-record frame accepted under a 99-record cap")
	}
	if _, err := DecodeWire(data, 100); err != nil {
		t.Fatalf("frame at exactly the cap rejected: %v", err)
	}
}

// TestWireRejectsBadDeps: a frame that passes the checksum but carries a
// dependence index at or ahead of its consumer is still rejected — the
// simulator's fast path indexes these arrays without bounds checks.
func TestWireRejectsBadDeps(t *testing.T) {
	soa := Pack(randomTrace(5, 32))
	n := soa.Len()
	data := soa.EncodeWire()
	// Dep1 array starts after 3 u64 arrays, 3 i8 arrays, and Meta.
	dep1At := 12 + n*24 + n*4
	// Record 3 depending on itself: structurally invalid, checksum-valid
	// once re-signed.
	binary.LittleEndian.PutUint32(data[dep1At+3*4:], 3)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[8:len(data)-4], soaCRCTable))
	_, err := DecodeWire(data, 0)
	if err == nil || !strings.Contains(err.Error(), "Dep1") {
		t.Fatalf("self-dependence accepted (err = %v)", err)
	}
}

// wireMutants returns checksum-valid frames of soa, each with one record
// changed the way a peer that recomputes the checksum could change it. The
// first three crashed consumers before the decoder checked records: class 13
// indexed the simulator's per-class tables out of range, and Dst 100 or
// Src1 90 the overlay profile's per-register tables.
func wireMutants(soa *SoA) map[string][]byte {
	first := func(ok func(i int) bool) int {
		for i := 1; i < soa.Len(); i++ {
			if ok(i) {
				return i
			}
		}
		panic("trace: no record to mutate")
	}
	frame := func(edit func(s *SoA)) []byte {
		s := Pack(soa.Unpack())
		edit(s)
		return s.EncodeWire()
	}
	const r = 5
	load := first(func(i int) bool { return soa.Class(i) == isa.Load })
	nonLoad := first(func(i int) bool { return soa.Class(i) != isa.Load })
	dep2 := first(func(i int) bool { return soa.Dep2[i] > 0 })
	return map[string][]byte{
		"class 13":            frame(func(s *SoA) { s.Meta[r] = s.Meta[r]&^MetaClassMask | 13 }),
		"Dst 100":             frame(func(s *SoA) { s.Dst[r] = 100 }),
		"Src1 90":             frame(func(s *SoA) { s.Src1[r] = 90 }),
		"stray Meta bit":      frame(func(s *SoA) { s.Meta[r] |= 1 << 6 }),
		"load at address 0":   frame(func(s *SoA) { s.Addr[load] = 0 }),
		"older Dep2 producer": frame(func(s *SoA) { s.Dep2[dep2]-- }),
		"DepMem on a non-load": frame(func(s *SoA) {
			s.DepMem[nonLoad] = 0
		}),
	}
}

// TestWireRejectsInvalidRecords: a frame whose checksum is valid but whose
// records differ from what Pack makes of them is rejected, naming the
// record. Every mutant here keeps its dependence indices behind their
// consumers, so checking only that would accept them all.
func TestWireRejectsInvalidRecords(t *testing.T) {
	soa := Pack(randomTrace(9, 200))
	for name, data := range wireMutants(soa) {
		if _, err := DecodeWire(data, 0); err == nil || !strings.Contains(err.Error(), "record") {
			t.Errorf("%s: accepted (err = %v)", name, err)
		}
	}
}

// FuzzDecodeWire: DecodeWire never panics, and every frame it accepts is
// exactly what Pack makes of the records it carries. Each input is also
// tried re-signed, as a lying peer would send it, so mutations reach the
// record checks instead of stopping at the checksum.
func FuzzDecodeWire(f *testing.F) {
	// Ten records keep frames small enough for the fuzzer's minimizer; this
	// seed has a load, a non-load and a second-source producer to mutate.
	soa := Pack(randomTrace(14, 10))
	f.Add(soa.EncodeWire())
	for _, data := range wireMutants(soa) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(frame []byte) {
			s, err := DecodeWire(frame, 64)
			if err != nil {
				return
			}
			if !reflect.DeepEqual(s, Pack(s.Unpack())) {
				t.Fatalf("accepted a %d-record frame that differs from Pack of its records", s.Len())
			}
		}
		check(data)
		if len(data) >= 16 {
			signed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(signed[len(signed)-4:], crc32.Checksum(signed[8:len(signed)-4], soaCRCTable))
			check(signed)
		}
	})
}
