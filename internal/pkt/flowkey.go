// Package pkt defines the packet model shared by the network simulator and
// byte-accurate codecs for the protocol headers NetSeer manipulates:
// Ethernet, VLAN, the NetSeer packet-ID tag, IPv4, TCP, UDP and PFC
// (IEEE 802.1Qbb) control frames.
//
// The simulator's hot path passes *Packet structs between components; the
// codecs exist so that every format NetSeer defines on the wire (the
// packet-ID tag, loss notifications, 24-byte event records) is specified
// exactly and round-trip tested.
package pkt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strconv"
)

// Proto numbers used by the simulator (IANA assigned).
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FlowKey identifies a flow by its IPv4 5-tuple. It is comparable and can
// be used directly as a map key; Hash returns the same CRC-32C value the
// switch pipeline would pre-compute and attach to event reports.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// FlowKeyLen is the length of the canonical wire encoding of a FlowKey:
// the 13-byte flow field of every NetSeer event record.
const FlowKeyLen = 13

// IP composes an IPv4 address from its dotted-quad octets.
func IP(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// AppendIP appends the dotted-quad form of an IPv4 address held in a
// uint32.
func AppendIP(b []byte, ip uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(ip>>shift)), 10)
		if shift != 0 {
			b = append(b, '.')
		}
	}
	return b
}

// IPString renders an IPv4 address held in a uint32.
func IPString(ip uint32) string {
	var buf [15]byte
	return string(AppendIP(buf[:0], ip))
}

// AppendTo appends the "proto src:port>dst:port" form of the 5-tuple,
// allocating nothing: the query server renders one per result row.
func (k FlowKey) AppendTo(b []byte) []byte {
	switch k.Proto {
	case ProtoTCP:
		b = append(b, "tcp "...)
	case ProtoUDP:
		b = append(b, "udp "...)
	default:
		b = append(b, "? "...)
	}
	b = AppendIP(b, k.SrcIP)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
	b = append(b, '>')
	b = AppendIP(b, k.DstIP)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(k.DstPort), 10)
}

// String renders the 5-tuple in "proto src:port>dst:port" form.
func (k FlowKey) String() string {
	var buf [48]byte
	return string(k.AppendTo(buf[:0]))
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		SrcIP: k.DstIP, DstIP: k.SrcIP,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// AppendWire appends the canonical 13-byte encoding of the key to b:
// srcIP(4) dstIP(4) srcPort(2) dstPort(2) proto(1), all big-endian.
func (k FlowKey) AppendWire(b []byte) []byte {
	var buf [FlowKeyLen]byte
	k.PutWire(buf[:])
	return append(b, buf[:]...)
}

// PutWire writes the canonical encoding into b, which must hold at least
// FlowKeyLen bytes.
func (k FlowKey) PutWire(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], k.SrcIP)
	binary.BigEndian.PutUint32(b[4:8], k.DstIP)
	binary.BigEndian.PutUint16(b[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], k.DstPort)
	b[12] = k.Proto
}

// FlowKeyFromWire decodes the canonical 13-byte encoding.
func FlowKeyFromWire(b []byte) (FlowKey, error) {
	if len(b) < FlowKeyLen {
		return FlowKey{}, fmt.Errorf("pkt: flow key truncated: %d bytes", len(b))
	}
	var k FlowKey
	k.SetWire((*[FlowKeyLen]byte)(b))
	return k, nil
}

// SetWire sets k from its canonical 13-byte encoding, in place.
func (k *FlowKey) SetWire(b *[FlowKeyLen]byte) {
	k.SrcIP = binary.BigEndian.Uint32(b[0:4])
	k.DstIP = binary.BigEndian.Uint32(b[4:8])
	k.SrcPort = binary.BigEndian.Uint16(b[8:10])
	k.DstPort = binary.BigEndian.Uint16(b[10:12])
	k.Proto = b[12]
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// castagnoli4 holds the slicing-by-4 lookup tables: table 0 is the plain
// Castagnoli byte table, and table n advances a CRC by n additional zero
// bytes, so four bytes fold into the CRC with four loads and three XORs
// instead of four dependent byte steps.
var castagnoli4 = func() (t [4][256]uint32) {
	for i, v := range castagnoli {
		t[0][i] = v
	}
	for n := 1; n < 4; n++ {
		for i := 0; i < 256; i++ {
			prev := t[n-1][i]
			t[n][i] = t[0][prev&0xff] ^ (prev >> 8)
		}
	}
	return
}()

// crcWord folds one little-endian 32-bit word into the running CRC using
// the slicing-by-4 tables.
func crcWord(crc, w uint32) uint32 {
	crc ^= w
	return castagnoli4[3][crc&0xff] ^ castagnoli4[2][crc>>8&0xff] ^
		castagnoli4[1][crc>>16&0xff] ^ castagnoli4[0][crc>>24]
}

// Hash returns the CRC-32C of the canonical encoding. The switch data plane
// computes this once a packet (Packet.FlowHash) and attaches it to every
// event report so the switch CPU can index its false-positive table
// without re-hashing (§3.6).
//
// The CRC is computed slicing-by-4 directly from the struct fields instead
// of calling crc32.Checksum: the stdlib entry point leaks its input to
// escape analysis, which would heap-allocate a scratch buffer on every
// packet of the hot path, and byte-at-a-time folding serializes 13
// dependent table loads. A little-endian load of the big-endian wire bytes
// is a byte swap of the field, so the 13-byte encoding reduces to three
// word folds plus one byte step — no buffer at all. Same polynomial,
// bit-identical result (asserted by TestFlowKeyHashMatchesCRC32C).
func (k FlowKey) Hash() uint32 {
	crc := ^uint32(0)
	crc = crcWord(crc, bits.ReverseBytes32(k.SrcIP))
	crc = crcWord(crc, bits.ReverseBytes32(k.DstIP))
	crc = crcWord(crc, bits.ReverseBytes32(uint32(k.SrcPort)<<16|uint32(k.DstPort)))
	crc = castagnoli[byte(crc)^k.Proto] ^ (crc >> 8)
	return ^crc
}

// WireHash is Hash of the key whose canonical encoding is b, folded from
// the bytes without decoding them: the little-endian words of the wire
// bytes are the byte-swapped fields Hash folds.
func WireHash(b *[FlowKeyLen]byte) uint32 {
	le := binary.LittleEndian
	crc := ^uint32(0)
	crc = crcWord(crc, le.Uint32(b[0:4]))
	crc = crcWord(crc, le.Uint32(b[4:8]))
	crc = crcWord(crc, le.Uint32(b[8:12]))
	crc = castagnoli[byte(crc)^b[12]] ^ (crc >> 8)
	return ^crc
}

// TableIndex reduces the hash onto a table of the given size.
func (k FlowKey) TableIndex(size int) int {
	return int(k.Hash() % uint32(size))
}
