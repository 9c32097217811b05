package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Wire format for packed traces, used by the fleet's peer cache-fill RPC
// (GET /v1/cache/trace/<fingerprint>): one daemon that has already
// paid for generating and packing a trace serves the finished SoA bytes to
// a peer that would otherwise recompute them. The frame is self-validating
// — magic, record count, and a trailing CRC32C over the payload — and the
// decoder additionally requires the decoded trace to be exactly what Pack
// makes of its own records, so neither a corrupted fill nor a well-formed
// frame from a peer that lies about its contents can reach the simulator or
// the ILP kernels.
//
// Layout (little-endian):
//
//	8-byte magic "ISSOA1\r\n"
//	u32 record count n
//	n × u64  PC
//	n × u64  Addr
//	n × u64  Target
//	n × i8   Src1
//	n × i8   Src2
//	n × i8   Dst
//	n × u8   Meta
//	n × i32  Dep1
//	n × i32  Dep2
//	n × i32  DepMem
//	u32 crc32c over everything after the magic, up to here
var soaWireMagic = [8]byte{'I', 'S', 'S', 'O', 'A', '1', '\r', '\n'}

const soaWireRecordBytes = 8 + 8 + 8 + 1 + 1 + 1 + 1 + 4 + 4 + 4 // 40

var soaCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WireSizeFor returns the encoded size of an n-record trace frame, so
// callers can derive transfer bounds from an instruction budget.
func WireSizeFor(n int) int {
	return len(soaWireMagic) + 4 + n*soaWireRecordBytes + 4
}

// WireSize returns the encoded size of the packed trace in bytes, so
// callers can enforce transfer bounds before materializing the frame.
func (s *SoA) WireSize() int { return WireSizeFor(s.Len()) }

// EncodeWire serializes the packed trace into the self-validating wire
// frame described above.
func (s *SoA) EncodeWire() []byte {
	n := s.Len()
	buf := make([]byte, s.WireSize())
	copy(buf, soaWireMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	at := 12
	for _, v := range s.PC {
		binary.LittleEndian.PutUint64(buf[at:], v)
		at += 8
	}
	for _, v := range s.Addr {
		binary.LittleEndian.PutUint64(buf[at:], v)
		at += 8
	}
	for _, v := range s.Target {
		binary.LittleEndian.PutUint64(buf[at:], v)
		at += 8
	}
	for _, v := range s.Src1 {
		buf[at] = uint8(v)
		at++
	}
	for _, v := range s.Src2 {
		buf[at] = uint8(v)
		at++
	}
	for _, v := range s.Dst {
		buf[at] = uint8(v)
		at++
	}
	at += copy(buf[at:], s.Meta)
	for _, v := range s.Dep1 {
		binary.LittleEndian.PutUint32(buf[at:], uint32(v))
		at += 4
	}
	for _, v := range s.Dep2 {
		binary.LittleEndian.PutUint32(buf[at:], uint32(v))
		at += 4
	}
	for _, v := range s.DepMem {
		binary.LittleEndian.PutUint32(buf[at:], uint32(v))
		at += 4
	}
	binary.LittleEndian.PutUint32(buf[at:], crc32.Checksum(buf[8:at], soaCRCTable))
	return buf
}

// DecodeWire parses and validates a wire frame back into a packed trace.
// maxRecords bounds the accepted trace length (<= 0 means the int32 packing
// limit). The checksum is verified, and so is every record: the decoded
// trace must equal Pack of its own records (valid classes, registers,
// addresses and targets, no stray Meta bits, and exactly the dependence
// indices Pack derives). Anyone can recompute the checksum, so only this
// makes the returned SoA safe to hand to the simulator and the ILP kernels
// when the bytes came from an untrusted peer.
func DecodeWire(data []byte, maxRecords int) (*SoA, error) {
	if maxRecords <= 0 {
		maxRecords = maxSoALen
	}
	if len(data) < len(soaWireMagic)+4+4 {
		return nil, fmt.Errorf("trace: wire frame too short (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != soaWireMagic {
		return nil, fmt.Errorf("trace: bad wire magic")
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if n > maxRecords {
		return nil, fmt.Errorf("trace: wire frame carries %d records, cap %d", n, maxRecords)
	}
	want := len(soaWireMagic) + 4 + n*soaWireRecordBytes + 4
	if len(data) != want {
		return nil, fmt.Errorf("trace: wire frame is %d bytes, want %d for %d records", len(data), want, n)
	}
	body := data[8 : len(data)-4]
	if got := crc32.Checksum(body, soaCRCTable); got != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("trace: wire frame checksum mismatch")
	}

	s := newSoA(n)
	at := 12
	s.PC = s.PC[:n]
	for i := range s.PC {
		s.PC[i] = binary.LittleEndian.Uint64(data[at:])
		at += 8
	}
	s.Addr = s.Addr[:n]
	for i := range s.Addr {
		s.Addr[i] = binary.LittleEndian.Uint64(data[at:])
		at += 8
	}
	s.Target = s.Target[:n]
	for i := range s.Target {
		s.Target[i] = binary.LittleEndian.Uint64(data[at:])
		at += 8
	}
	s.Src1 = s.Src1[:n]
	for i := range s.Src1 {
		s.Src1[i] = int8(data[at])
		at++
	}
	s.Src2 = s.Src2[:n]
	for i := range s.Src2 {
		s.Src2[i] = int8(data[at])
		at++
	}
	s.Dst = s.Dst[:n]
	for i := range s.Dst {
		s.Dst[i] = int8(data[at])
		at++
	}
	s.Meta = s.Meta[:n]
	at += copy(s.Meta, data[at:at+n])
	s.Dep1 = s.Dep1[:n]
	for i := range s.Dep1 {
		s.Dep1[i] = int32(binary.LittleEndian.Uint32(data[at:]))
		at += 4
	}
	s.Dep2 = s.Dep2[:n]
	for i := range s.Dep2 {
		s.Dep2[i] = int32(binary.LittleEndian.Uint32(data[at:]))
		at += 4
	}
	s.DepMem = s.DepMem[:n]
	for i := range s.DepMem {
		s.DepMem[i] = int32(binary.LittleEndian.Uint32(data[at:]))
		at += 4
	}

	if err := s.verifyPacked(); err != nil {
		return nil, fmt.Errorf("trace: wire %w", err)
	}
	return s, nil
}
