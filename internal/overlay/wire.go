package overlay

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"intervalsim/internal/trace"
)

// Wire format for overlays, used by the fleet's peer cache-fill RPC
// (GET /v1/cache/overlay/<fingerprint>). An overlay is meaningless
// without its trace, so the frame names the trace it annotates by the
// trace's content fingerprint; the decoder refuses to attach the code
// bytes to any other trace. Like the trace frame, the payload carries a
// trailing CRC32C so torn or corrupted fills are rejected.
//
// Layout (little-endian):
//
//	8-byte magic "ISOVL1\r\n" (or "ISOVL2\r\n", see below)
//	u16 trace fingerprint length, then the fingerprint bytes
//	u64 PredFP
//	u64 MemFP
//	u64 VPredFP               (v2 frames only)
//	u32 code length n
//	n bytes of per-instruction code
//	u32 crc32c over everything after the magic, up to here
//
// Overlays computed without value prediction (VPredFP == 0) encode as v1,
// byte-identical to every frame the fleet has ever exchanged; overlays with
// value speculation need the extra fingerprint field and encode as v2. The
// decoder accepts both, so a mixed fleet degrades safely: an old daemon
// rejects v2 frames on the magic check and computes locally.
var (
	overlayWireMagic   = [8]byte{'I', 'S', 'O', 'V', 'L', '1', '\r', '\n'}
	overlayWireMagicV2 = [8]byte{'I', 'S', 'O', 'V', 'L', '2', '\r', '\n'}
)

var overlayCRCTable = crc32.MakeTable(crc32.Castagnoli)

const maxTraceFPLen = 256

// EncodeWire serializes the overlay, labeled with the fingerprint of the
// trace it annotates.
func (o *Overlay) EncodeWire(traceFP string) []byte {
	if len(traceFP) > maxTraceFPLen {
		traceFP = traceFP[:maxTraceFPLen]
	}
	v2 := o.VPredFP != 0
	n := len(o.Code)
	extra := 0
	if v2 {
		extra = 8
	}
	buf := make([]byte, 0, len(overlayWireMagic)+2+len(traceFP)+8+8+extra+4+n+4)
	if v2 {
		buf = append(buf, overlayWireMagicV2[:]...)
	} else {
		buf = append(buf, overlayWireMagic[:]...)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(traceFP)))
	buf = append(buf, traceFP...)
	buf = binary.LittleEndian.AppendUint64(buf, o.PredFP)
	buf = binary.LittleEndian.AppendUint64(buf, o.MemFP)
	if v2 {
		buf = binary.LittleEndian.AppendUint64(buf, o.VPredFP)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, o.Code...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[8:], overlayCRCTable))
	return buf
}

// DecodeWire parses an overlay frame and attaches it to soa, which must be
// the local copy of the trace the frame was encoded against: the caller
// passes the fingerprint it computed for soa, and the decode fails unless
// the frame names the same trace, the checksum holds, and the code length
// matches soa exactly. The spec fingerprint (PredFP, MemFP, VPredFP) is
// returned to the caller via the Overlay for its own verification.
func DecodeWire(data []byte, traceFP string, soa *trace.SoA) (*Overlay, error) {
	const head = 8 + 2
	if len(data) < head+8+8+4+4 {
		return nil, fmt.Errorf("overlay: wire frame too short (%d bytes)", len(data))
	}
	var v2 bool
	switch [8]byte(data[:8]) {
	case overlayWireMagic:
	case overlayWireMagicV2:
		v2 = true
	default:
		return nil, fmt.Errorf("overlay: bad wire magic")
	}
	extra := 0
	if v2 {
		extra = 8
	}
	fpLen := int(binary.LittleEndian.Uint16(data[8:]))
	if fpLen > maxTraceFPLen || len(data) < head+fpLen+8+8+extra+4+4 {
		return nil, fmt.Errorf("overlay: wire frame truncated")
	}
	gotFP := string(data[head : head+fpLen])
	at := head + fpLen
	predFP := binary.LittleEndian.Uint64(data[at:])
	memFP := binary.LittleEndian.Uint64(data[at+8:])
	at += 16
	var vpredFP uint64
	if v2 {
		vpredFP = binary.LittleEndian.Uint64(data[at:])
		at += 8
	}
	n := int(binary.LittleEndian.Uint32(data[at:])) // u32, so never negative after widening
	at += 4
	if len(data) != at+n+4 {
		return nil, fmt.Errorf("overlay: wire frame is %d bytes, want %d for %d code bytes", len(data), at+n+4, n)
	}
	if got := crc32.Checksum(data[8:len(data)-4], overlayCRCTable); got != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("overlay: wire frame checksum mismatch")
	}
	if gotFP != traceFP {
		return nil, fmt.Errorf("overlay: frame is for trace %s, want %s", gotFP, traceFP)
	}
	if v2 && vpredFP == 0 {
		return nil, fmt.Errorf("overlay: v2 wire frame without a value-predictor fingerprint")
	}
	if n != soa.Len() {
		return nil, fmt.Errorf("overlay: frame carries %d code bytes for a %d-record trace", n, soa.Len())
	}
	code := make([]uint8, n)
	copy(code, data[at:at+n])
	return &Overlay{Trace: soa, PredFP: predFP, MemFP: memFP, VPredFP: vpredFP, Code: code}, nil
}
