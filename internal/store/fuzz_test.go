package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanRecords feeds arbitrary bytes to the recovery scan behind every
// segment and journal open — the bytes a crash may tear. The scan must not
// panic, and the records it returns must re-frame to exactly the prefix it
// reports as good, each at the offset it names. Seeds are a real
// three-record log and its torn prefixes.
func FuzzScanRecords(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.log")
	l, _, _, err := OpenLog(OS, path, true)
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range [][]byte{[]byte(`{"seq":0}`), nil, bytes.Repeat([]byte{0xAB}, 40)} {
		if _, err := l.Append(uint8(i+1), p); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := raw[len(logMagic):]
	for _, n := range []int{len(body), len(body) - 1, len(body) - 30, frameHeaderSize + 4, frameHeaderSize - 1, 0} {
		f.Add(body[:n])
	}

	const base = int64(len(logMagic))
	f.Fuzz(func(t *testing.T, buf []byte) {
		records, good := scanRecords(buf, base)
		if good < base || good > base+int64(len(buf)) {
			t.Fatalf("good offset %d outside [%d, %d]", good, base, base+int64(len(buf)))
		}
		var reframed []byte
		for _, r := range records {
			if r.Offset != base+int64(len(reframed)) {
				t.Fatalf("record at offset %d, want %d", r.Offset, base+int64(len(reframed)))
			}
			b := append([]byte{r.Kind}, r.Payload...)
			reframed = binary.LittleEndian.AppendUint32(reframed, uint32(len(b)))
			reframed = binary.LittleEndian.AppendUint32(reframed, crc32.Checksum(b, crcTable))
			reframed = append(reframed, b...)
		}
		if want := buf[:good-base]; !bytes.Equal(reframed, want) {
			t.Fatalf("%d records re-frame to %d bytes, scan reported %d good bytes", len(records), len(reframed), len(want))
		}
	})
}
