package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzRead asserts the binary decoder never panics and never silently
// accepts input it cannot faithfully re-encode.
func FuzzRead(f *testing.F) {
	// Seed with a small valid trace and a few mutations of it.
	valid := randomTrace(99, 32)
	var buf bytes.Buffer
	if err := Write(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("IVTR\x01\x00"))
	f.Add([]byte("IVTR"))
	f.Add([]byte{})
	mutated := append([]byte(nil), buf.Bytes()...)
	if len(mutated) > 10 {
		mutated[9] ^= 0xff
	}
	f.Add(mutated)

	// Boundary crashers found while pinning the decoder's edge behavior
	// (see boundary_test.go): lying counts that stress the preallocation
	// cap, truncation at the last record, and trailing bytes past the
	// declared count.
	f.Add(headerWithCount(1 << 20))                          // count exactly at the preallocation cap, no body
	f.Add(headerWithCount(1<<20 + 1))                        // one past the cap
	f.Add(headerWithCount(^uint64(0)))                       // maximal lying count
	f.Add(buf.Bytes()[:buf.Len()-1])                         // one byte short of the final record
	f.Add(append(append([]byte(nil), buf.Bytes()...), 0x00)) // one trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		// Accepted input must round-trip.
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if tr.Len() != tr2.Len() {
			t.Fatalf("round trip changed length: %d vs %d", tr.Len(), tr2.Len())
		}
	})
}

// TestCorruptionInjection is the deterministic companion to FuzzRead: a
// table of systematic corruptions — truncation at every byte (covering every
// record and field boundary) and a bit flip at every byte — each of which
// must either be rejected with a descriptive ErrCorrupt-wrapped error or
// decode into a trace that faithfully round-trips.
func TestCorruptionInjection(t *testing.T) {
	valid := randomTrace(7, 24)
	var buf bytes.Buffer
	if err := Write(&buf, valid); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Collect the record boundary offsets with a counting decode.
	dec, n, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{dec.Offset()} // end of header
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, dec.Offset())
	}
	if uint64(len(boundaries)-1) != n || boundaries[len(boundaries)-1] != int64(len(data)) {
		t.Fatalf("boundary scan saw %d records ending at %d; want %d ending at %d",
			len(boundaries)-1, boundaries[len(boundaries)-1], n, len(data))
	}

	t.Run("truncation", func(t *testing.T) {
		// Every proper prefix — which includes every record boundary and
		// every mid-field position — must be rejected, with ErrCorrupt.
		for cut := 0; cut < len(data); cut++ {
			_, err := Read(bytes.NewReader(data[:cut]))
			if err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
			}
		}
		// Boundary truncations beyond the header lose whole records: the
		// error must be a descriptive record-level one, not a header error.
		for i, b := range boundaries[:len(boundaries)-1] {
			_, err := Read(bytes.NewReader(data[:b]))
			if err == nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("boundary %d (offset %d): err = %v", i, b, err)
			}
			if !strings.Contains(err.Error(), "record") && !strings.Contains(err.Error(), "offset") {
				t.Errorf("boundary %d error lacks context: %v", i, err)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		for pos := 0; pos < len(data); pos++ {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), data...)
				mut[pos] ^= mask
				tr, err := Read(bytes.NewReader(mut))
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flip %#x at %d: err = %v, want ErrCorrupt", mask, pos, err)
					}
					continue
				}
				// Accepted: the decode must be self-consistent (round-trip).
				var out bytes.Buffer
				if err := Write(&out, tr); err != nil {
					t.Fatalf("flip %#x at %d: accepted trace failed to re-encode: %v", mask, pos, err)
				}
				tr2, err := Read(&out)
				if err != nil {
					t.Fatalf("flip %#x at %d: re-encoded trace rejected: %v", mask, pos, err)
				}
				if tr.Len() != tr2.Len() {
					t.Fatalf("flip %#x at %d: round trip changed length %d -> %d", mask, pos, tr.Len(), tr2.Len())
				}
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), data...), 0xde, 0xad)
		_, err := Read(bytes.NewReader(mut))
		if err == nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), "trailing") {
			t.Errorf("trailing-garbage error not descriptive: %v", err)
		}
	})
}

// TestDecoderErrorContext asserts decode errors carry the record index,
// field name, and byte offset.
func TestDecoderErrorContext(t *testing.T) {
	valid := randomTrace(11, 8)
	var buf bytes.Buffer
	if err := Write(&buf, valid); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, err := Read(bytes.NewReader(data[:len(data)-1])) // clip the last field
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"record", "field", "offset"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// FuzzReadText asserts the text decoder never panics and that accepted
// input re-encodes.
func FuzzReadText(f *testing.F) {
	valid := randomTrace(98, 16)
	var buf bytes.Buffer
	if err := WriteText(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("0x1000 IntALU r1 r2 r3\n")
	f.Add("# only a comment\n\n")
	f.Add("0x1000 Load r1 - r2 @0x8000 garbage")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr); err != nil {
			t.Fatalf("accepted text trace failed to re-encode: %v", err)
		}
	})
}
