// Package fec is the transport's forward-erasure repair layer: a pluggable
// parity codec driven over the send window so a single lost DATA packet per
// group can be reconstructed at the receiver without waiting a round trip
// for SACK- or RTO-driven recovery (the FlEC argument applied to IQ-RUDP's
// marking model).
//
// The sender folds every first transmission into the open group and emits
// one REPAIR packet per K data packets (packet.REPAIR: Seq = group base,
// FragCnt = span, Payload = parity). The receiver keeps a bounded ring of
// recently seen data units; when a repair arrives with exactly one group
// member missing — or a later arrival reduces a parked group to one hole —
// the missing packet is reconstructed and handed back to the protocol
// machine, which feeds it through the normal receive path.
//
// The package is sans-I/O and knows nothing about the Machine: internal/core
// owns when to add, flush and reconstruct.
package fec

import (
	"encoding/binary"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// Codec is the pluggable repair arithmetic. XOR ships first; the interface
// mirrors a systematic erasure code with one repair block per group, so a
// Reed–Solomon implementation (fold = multiply by the generator coefficient
// at the unit's group index, reconstruct = solve for the missing index) can
// drop in without changing Encoder or Decoder.
type Codec interface {
	// Name identifies the codec on the wire and in diagnostics.
	Name() string
	// Fold accumulates the unit at group index idx into acc, growing acc as
	// needed (short units are treated as zero-padded), and returns acc.
	Fold(acc, unit []byte, idx int) []byte
	// Reconstruct extracts the unit at missing group index idx from an
	// accumulator holding the repair block folded with every present unit.
	Reconstruct(acc []byte, idx int) []byte
}

// XOR is the parity codec: the repair block is the byte-wise XOR of the
// group's units, recovering any single missing unit.
type XOR struct{}

// Name implements Codec.
func (XOR) Name() string { return "xor" }

// Fold implements Codec; for XOR the group index is irrelevant.
func (XOR) Fold(acc, unit []byte, _ int) []byte {
	if n := len(unit) - len(acc); n > 0 {
		acc = append(acc, make([]byte, n)...) // one zeroed growth, reusing capacity
	}
	for i, b := range unit {
		acc[i] ^= b
	}
	return acc
}

// Reconstruct implements Codec: after folding every present unit into the
// parity, the accumulator is the missing unit.
func (XOR) Reconstruct(acc []byte, _ int) []byte { return acc }

// GroupMax caps the repair-group span: the decoder tracks membership in a
// 64-bit mask, and one parity block cannot usefully cover more anyway.
const GroupMax = 64

// unitFlagsMask keeps only the flags that survive reconstruction. The
// attr-presence and forward-seq flags describe wire-encoding details whose
// side data (the raw attr block, the Fwd field) is carried or dropped
// explicitly, and they differ between the sender's staged flags and the
// receiver's decoded flags — folding them would corrupt the parity.
const unitFlagsMask = packet.FlagMarked | packet.FlagMsgEnd

// A unit is a DATA packet re-framed for parity arithmetic, so that
// reconstruction recovers framing and payload exactly:
//
//	flags(1) msgID(4) frag(2) fragCnt(2) attrLen(2) payloadLen(2)
//	attrBlock(attrLen) payload(payloadLen)
//
// Units in one group are XORed zero-padded to the longest member; the
// length prefixes let the parse trim the padding back off.
const unitHeader = 1 + 4 + 2 + 2 + 2 + 2

// appendUnit encodes one data packet as a parity unit, appending to dst.
func appendUnit(dst []byte, flags uint8, msgID uint32, frag, fragCnt uint16, attrs *attr.List, payload []byte) ([]byte, error) {
	dst = append(dst, flags&unitFlagsMask)
	dst = binary.BigEndian.AppendUint32(dst, msgID)
	dst = binary.BigEndian.AppendUint16(dst, frag)
	dst = binary.BigEndian.AppendUint16(dst, fragCnt)
	aoff := len(dst)
	dst = append(dst, 0, 0)
	if attrs.Len() > 0 {
		var err error
		dst, err = attr.AppendEncode(dst, attrs)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(dst[aoff:], uint16(len(dst)-aoff-2))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...), nil
}

// Recovered is one reconstructed data packet, ready to be re-framed as a
// packet.Packet and fed through the machine's receive path. Payload and
// Attrs are owned by the caller once returned (the decoder drops its
// references).
type Recovered struct {
	Seq     uint32
	Flags   uint8
	MsgID   uint32
	Frag    uint16
	FragCnt uint16
	Attrs   *attr.List
	Payload []byte

	// HoleOpenAt is the receive-side time the reconstruction hole became
	// observable: the earliest arrival among the group's later members (or
	// the repair packet itself when it arrived first). Repair latency is
	// measured from here.
	HoleOpenAt time.Duration
}

// parseUnit decodes a reconstructed unit buffer (possibly carrying parity
// zero-padding after the payload) into r.
func parseUnit(b []byte, seq uint32, r *Recovered) bool {
	if len(b) < unitHeader {
		return false
	}
	r.Seq = seq
	r.Flags = b[0] & unitFlagsMask
	r.MsgID = binary.BigEndian.Uint32(b[1:])
	r.Frag = binary.BigEndian.Uint16(b[5:])
	r.FragCnt = binary.BigEndian.Uint16(b[7:])
	alen := int(binary.BigEndian.Uint16(b[9:]))
	off := 11 + alen
	if off+2 > len(b) {
		return false
	}
	r.Attrs = nil
	if alen > 0 {
		attrs, _, err := attr.Decode(b[11 : 11+alen])
		if err != nil {
			return false
		}
		r.Attrs = attrs
	}
	plen := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if off+plen > len(b) {
		return false
	}
	r.Payload = b[off : off+plen]
	return true
}

// Encoder folds the sender's first transmissions into repair groups. It is
// not safe for concurrent use; the machine drives it from its serialisation
// context.
type Encoder struct {
	c Codec
	k int // group size target: data packets per repair packet

	base uint32 // open group's base sequence number
	next uint32 // next expected sequence number (contiguity check)
	n    int    // units folded into the open group
	acc  []byte // parity accumulator
	unit []byte // unit staging scratch
}

// NewEncoder builds an encoder emitting one repair per k data packets
// (clamped to [2, GroupMax]).
func NewEncoder(c Codec, k int) *Encoder {
	e := &Encoder{c: c}
	e.SetGroup(k)
	return e
}

// Group returns the current group size K.
func (e *Encoder) Group() int { return e.k }

// SetGroup retunes the group size (adaptive repair rate). An open group
// larger than the new K closes at the next Add.
func (e *Encoder) SetGroup(k int) {
	if k < 2 {
		k = 2
	}
	if k > GroupMax {
		k = GroupMax
	}
	e.k = k
}

// Pending returns the number of data packets in the open group.
func (e *Encoder) Pending() int { return e.n }

// Base returns the open group's base sequence number (meaningful when
// Pending > 0).
func (e *Encoder) Base() uint32 { return e.base }

// Add folds one first-transmission DATA packet into the open group and
// reports whether the group reached K (the caller must then emit Flush's
// repair). A sequence number that breaks contiguity — a retransmission
// interleaved by the caller, or a skipped packet — restarts the group at
// seq: repair groups must be contiguous runs or the receiver cannot name
// the members.
func (e *Encoder) Add(seq uint32, flags uint8, msgID uint32, frag, fragCnt uint16, attrs *attr.List, payload []byte) bool {
	if e.n > 0 && seq != e.next {
		e.reset()
	}
	if e.n == 0 {
		e.base = seq
		e.acc = e.acc[:0] // the last group's parity is no longer lent out
	}
	unit, err := appendUnit(e.unit[:0], flags, msgID, frag, fragCnt, attrs, payload)
	if err != nil {
		e.unit = unit[:0]
		e.reset()
		return false
	}
	e.unit = unit
	e.acc = e.c.Fold(e.acc, unit, e.n)
	e.n++
	e.next = seq + 1
	return e.n >= e.k
}

// Flush closes the open group, returning its base, span and parity block.
// The parity is borrowed: it is valid until the next Add. ok is false when
// no group is open.
func (e *Encoder) Flush() (base uint32, span int, parity []byte, ok bool) {
	if e.n == 0 {
		return 0, 0, nil, false
	}
	base, span, parity = e.base, e.n, e.acc
	// acc's storage is lent out until the next Add, which starts the next
	// group in the same storage.
	e.n = 0
	return base, span, parity, true
}

func (e *Encoder) reset() {
	e.n = 0
	e.acc = e.acc[:0]
}
