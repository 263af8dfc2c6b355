package attr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format for an attribute list, used when attributes are piggybacked on
// IQ-RUDP packets:
//
//	count  uint8
//	repeat count times:
//	  nameLen uint8, name bytes
//	  kind    uint8
//	  payload: int64/float64 big-endian, bool byte, or uint16-length string
//
// The format is intentionally small and allocation-light; attribute lists on
// the wire carry a handful of entries.

// Codec errors.
var (
	ErrTruncated   = errors.New("attr: truncated attribute block")
	ErrBadKind     = errors.New("attr: unknown value kind")
	ErrTooMany     = errors.New("attr: too many attributes for wire format")
	ErrNameTooLong = errors.New("attr: attribute name too long")
)

// MaxWireAttrs is the maximum number of attributes in one wire block.
const MaxWireAttrs = 255

// MaxNameLen is the maximum encoded attribute name length.
const MaxNameLen = 255

// AppendEncode appends the wire encoding of l to dst and returns the extended
// slice. A nil or empty list encodes as a single zero byte.
func AppendEncode(dst []byte, l *List) ([]byte, error) {
	n := l.Len()
	if n > MaxWireAttrs {
		return dst, ErrTooMany
	}
	dst = append(dst, byte(n))
	if n == 0 {
		return dst, nil
	}
	for _, a := range l.attrs {
		if len(a.Name) > MaxNameLen {
			return dst, fmt.Errorf("%w: %q", ErrNameTooLong, a.Name)
		}
		dst = append(dst, byte(len(a.Name)))
		dst = append(dst, a.Name...)
		dst = append(dst, byte(a.Value.kind))
		switch a.Value.kind {
		case KindInt:
			dst = binary.BigEndian.AppendUint64(dst, uint64(a.Value.i))
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Value.f))
		case KindBool:
			if a.Value.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			if len(a.Value.s) > math.MaxUint16 {
				return dst, fmt.Errorf("attr: string value too long (%d bytes)", len(a.Value.s))
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Value.s)))
			dst = append(dst, a.Value.s...)
		default:
			return dst, fmt.Errorf("%w: %d", ErrBadKind, a.Value.kind)
		}
	}
	return dst, nil
}

// Encode returns the wire encoding of l.
func Encode(l *List) ([]byte, error) {
	return AppendEncode(nil, l)
}

// Decode parses one attribute block from the front of b, returning the list
// (nil for an empty block) and the number of bytes consumed.
func Decode(b []byte) (*List, int, error) {
	if len(b) < 1 {
		return nil, 0, ErrTruncated
	}
	n := int(b[0])
	off := 1
	if n == 0 {
		return nil, off, nil
	}
	l := &List{attrs: make([]Attr, 0, n)}
	for i := 0; i < n; i++ {
		if off >= len(b) {
			return nil, 0, ErrTruncated
		}
		nameLen := int(b[off])
		off++
		if off+nameLen+1 > len(b) {
			return nil, 0, ErrTruncated
		}
		name := intern(b[off : off+nameLen])
		off += nameLen
		kind := Kind(b[off])
		off++
		var v Value
		switch kind {
		case KindInt:
			if off+8 > len(b) {
				return nil, 0, ErrTruncated
			}
			v = Int(int64(binary.BigEndian.Uint64(b[off:])))
			off += 8
		case KindFloat:
			if off+8 > len(b) {
				return nil, 0, ErrTruncated
			}
			v = Float(math.Float64frombits(binary.BigEndian.Uint64(b[off:])))
			off += 8
		case KindBool:
			if off+1 > len(b) {
				return nil, 0, ErrTruncated
			}
			v = Bool(b[off] != 0)
			off++
		case KindString:
			if off+2 > len(b) {
				return nil, 0, ErrTruncated
			}
			sl := int(binary.BigEndian.Uint16(b[off:]))
			off += 2
			if off+sl > len(b) {
				return nil, 0, ErrTruncated
			}
			v = String_(string(b[off : off+sl]))
			off += sl
		default:
			return nil, 0, fmt.Errorf("%w: %d", ErrBadKind, kind)
		}
		// Duplicate names on the wire: last wins, matching List.Set.
		l.Set(name, v)
	}
	return l, off, nil
}

// EncodedSize returns the number of bytes Encode would produce.
func (l *List) EncodedSize() int {
	size := 1
	if l == nil {
		return size
	}
	for _, a := range l.attrs {
		size += 1 + len(a.Name) + 1
		switch a.Value.kind {
		case KindInt, KindFloat:
			size += 8
		case KindBool:
			size++
		case KindString:
			size += 2 + len(a.Value.s)
		}
	}
	return size
}
