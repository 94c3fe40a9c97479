package pkt

import (
	"errors"
	"fmt"
)

// This file provides whole-frame serialization of simulator packets and a
// zero-allocation decoder in the style of gopacket's DecodingLayerParser:
// the caller owns one Frame value and DecodeFrame fills it in place, so the
// hot path performs no per-packet allocation.

// Frame is the decoded view of an Ethernet frame. Which members are valid
// is indicated by the Layers bitmap.
type Frame struct {
	Layers  LayerFlags
	Eth     Ethernet
	VLAN    VLAN
	Tag     NetSeerTag
	IP      IPv4
	TCP     TCP
	UDP     UDP
	PFC     PFCFrame
	Payload []byte
}

// LayerFlags records which layers DecodeFrame found.
type LayerFlags uint8

// Layer bits for Frame.Layers.
const (
	LayerEthernet LayerFlags = 1 << iota
	LayerVLAN
	LayerNetSeerTag
	LayerIPv4
	LayerTCP
	LayerUDP
	LayerPFC
)

// Has reports whether all layers in mask were decoded.
func (f LayerFlags) Has(mask LayerFlags) bool { return f&mask == mask }

// ErrUnknownEtherType reports a payload type the decoder cannot parse.
var ErrUnknownEtherType = errors.New("pkt: unknown EtherType")

// DecodeFrame parses data into f, overwriting any previous contents.
// Decoding stops at the first unknown EtherType, leaving the remainder in
// f.Payload (mirroring gopacket's behaviour of returning what it could
// decode).
func DecodeFrame(data []byte, f *Frame) error {
	f.Layers = 0
	f.Payload = nil
	rest, err := f.Eth.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	f.Layers |= LayerEthernet
	et := f.Eth.EtherType
	for {
		switch et {
		case EtherTypeVLAN:
			if rest, err = f.VLAN.DecodeFromBytes(rest); err != nil {
				return err
			}
			f.Layers |= LayerVLAN
			et = f.VLAN.EtherType
		case EtherTypeNetSeer:
			if rest, err = f.Tag.DecodeFromBytes(rest); err != nil {
				return err
			}
			f.Layers |= LayerNetSeerTag
			et = f.Tag.EtherType
		case EtherTypeMACCtrl:
			if rest, err = f.PFC.DecodeFromBytes(rest); err != nil {
				return err
			}
			f.Layers |= LayerPFC
			f.Payload = rest
			return nil
		case EtherTypeIPv4:
			if rest, err = f.IP.DecodeFromBytes(rest); err != nil {
				return err
			}
			f.Layers |= LayerIPv4
			switch f.IP.Protocol {
			case ProtoTCP:
				if rest, err = f.TCP.DecodeFromBytes(rest); err != nil {
					return err
				}
				f.Layers |= LayerTCP
			case ProtoUDP:
				if rest, err = f.UDP.DecodeFromBytes(rest); err != nil {
					return err
				}
				f.Layers |= LayerUDP
			}
			f.Payload = rest
			return nil
		default:
			f.Payload = rest
			return fmt.Errorf("%w: %#04x", ErrUnknownEtherType, et)
		}
	}
}

// FlowKey extracts the 5-tuple from a decoded frame. ok is false when the
// frame has no IPv4 layer.
func (f *Frame) FlowKey() (k FlowKey, ok bool) {
	if !f.Layers.Has(LayerIPv4) {
		return FlowKey{}, false
	}
	k.SrcIP = f.IP.Src
	k.DstIP = f.IP.Dst
	k.Proto = f.IP.Protocol
	switch {
	case f.Layers.Has(LayerTCP):
		k.SrcPort, k.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case f.Layers.Has(LayerUDP):
		k.SrcPort, k.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	}
	return k, true
}

// MarshalDataFrame serializes a simulator data packet into an on-wire frame:
// Ethernet [NetSeerTag if p.HasSeqTag] IPv4 TCP|UDP + zero padding up to
// p.WireLen. The payload bytes are synthetic (zeros) since the simulator does
// not model application payloads; header fields are faithful.
func MarshalDataFrame(p *Packet, b []byte) []byte {
	innerLen := IPv4HeaderLen
	switch p.Flow.Proto {
	case ProtoTCP:
		innerLen += TCPHeaderLen
	case ProtoUDP:
		innerLen += UDPHeaderLen
	}
	eth := Ethernet{EtherType: EtherTypeIPv4}
	if p.HasSeqTag {
		eth.EtherType = EtherTypeNetSeer
	}
	b = eth.AppendTo(b)
	if p.HasSeqTag {
		tag := NetSeerTag{PacketID: p.SeqTag, EtherType: EtherTypeIPv4}
		b = tag.AppendTo(b)
	}
	payload := p.WireLen - EthernetHeaderLen - innerLen
	if p.HasSeqTag {
		payload -= NetSeerTagLen
	}
	if payload < 0 {
		payload = 0
	}
	ip := IPv4{
		TOS:      p.Priority << 5,
		TotalLen: uint16(innerLen + payload),
		TTL:      p.TTL,
		Protocol: p.Flow.Proto,
		Src:      p.Flow.SrcIP,
		Dst:      p.Flow.DstIP,
	}
	b = ip.AppendTo(b)
	switch p.Flow.Proto {
	case ProtoTCP:
		t := TCP{SrcPort: p.Flow.SrcPort, DstPort: p.Flow.DstPort, Flags: TCPAck}
		b = t.AppendTo(b)
	case ProtoUDP:
		u := UDP{SrcPort: p.Flow.SrcPort, DstPort: p.Flow.DstPort, Length: uint16(UDPHeaderLen + payload)}
		b = u.AppendTo(b)
	}
	for i := 0; i < payload; i++ {
		b = append(b, 0)
	}
	return b
}

// UnmarshalDataFrame decodes a frame produced by MarshalDataFrame back into
// a simulator packet (flow, TTL, priority, seq tag, wire length).
func UnmarshalDataFrame(data []byte, p *Packet) error {
	var f Frame
	if err := DecodeFrame(data, &f); err != nil {
		return err
	}
	k, ok := f.FlowKey()
	if !ok {
		return errors.New("pkt: frame has no IPv4 layer")
	}
	p.Kind = KindData
	p.Flow, p.hashed = k, false
	p.TTL = f.IP.TTL
	p.Priority = f.IP.TOS >> 5
	p.WireLen = len(data)
	p.HasSeqTag = f.Layers.Has(LayerNetSeerTag)
	if p.HasSeqTag {
		p.SeqTag = f.Tag.PacketID
	} else {
		p.SeqTag = 0
	}
	return nil
}
