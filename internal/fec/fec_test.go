package fec

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/race"
)

// pkt is a test-side stand-in for one DATA packet's FEC-relevant fields.
type pkt struct {
	seq     uint32
	flags   uint8
	msgID   uint32
	frag    uint16
	fragCnt uint16
	attrs   *attr.List
	payload []byte
}

func mkPkts(base uint32, n int) []pkt {
	out := make([]pkt, n)
	for i := range out {
		out[i] = pkt{
			seq:     base + uint32(i),
			flags:   packet.FlagMarked,
			msgID:   100 + uint32(i),
			frag:    0,
			fragCnt: 1,
			payload: []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i))),
		}
	}
	out[n-1].flags |= packet.FlagMsgEnd
	return out
}

// encodeGroup runs the sender side over pkts and returns the repair.
func encodeGroup(t *testing.T, e *Encoder, pkts []pkt) (base uint32, span int, parity []byte) {
	t.Helper()
	for i, p := range pkts {
		full := e.Add(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload)
		if full != (i == len(pkts)-1 && len(pkts) >= e.Group()) {
			t.Fatalf("Add(%d): full = %v at i=%d (k=%d)", p.seq, full, i, e.Group())
		}
	}
	base, span, parity, ok := e.Flush()
	if !ok {
		t.Fatal("Flush: no open group")
	}
	// Parity is borrowed until the next Add; copy for test convenience.
	return base, span, append([]byte(nil), parity...)
}

func checkRecovered(t *testing.T, r Recovered, want pkt) {
	t.Helper()
	if r.Seq != want.seq {
		t.Errorf("Seq = %d, want %d", r.Seq, want.seq)
	}
	if r.Flags != want.flags&unitFlagsMask {
		t.Errorf("Flags = %#x, want %#x", r.Flags, want.flags&unitFlagsMask)
	}
	if r.MsgID != want.msgID || r.Frag != want.frag || r.FragCnt != want.fragCnt {
		t.Errorf("framing = (%d,%d,%d), want (%d,%d,%d)",
			r.MsgID, r.Frag, r.FragCnt, want.msgID, want.frag, want.fragCnt)
	}
	if !bytes.Equal(r.Payload, want.payload) {
		t.Errorf("Payload = %q, want %q", r.Payload, want.payload)
	}
}

func TestRecoverFromRepair(t *testing.T) {
	// Drop each position in turn; the repair alone must close the hole.
	for drop := 0; drop < 4; drop++ {
		e := NewEncoder(XOR{}, 4)
		d := NewDecoder(XOR{}, 0)
		pkts := mkPkts(10, 4)
		base, span, parity := encodeGroup(t, e, pkts)
		if base != 10 || span != 4 {
			t.Fatalf("group = (%d,%d), want (10,4)", base, span)
		}
		var recs []Recovered
		for i, p := range pkts {
			if i == drop {
				continue
			}
			recs = d.OnData(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload, time.Duration(i), recs)
		}
		if len(recs) != 0 {
			t.Fatalf("drop=%d: recovered before repair arrived", drop)
		}
		recs = d.OnRepair(base, span, parity, 10, 100, recs)
		if len(recs) != 1 {
			t.Fatalf("drop=%d: got %d recoveries, want 1", drop, len(recs))
		}
		checkRecovered(t, recs[0], pkts[drop])
	}
}

func TestRecoverViaLateArrival(t *testing.T) {
	// Two holes on repair arrival: the group parks, and a later (retransmit)
	// arrival of one hole closes the other.
	e := NewEncoder(XOR{}, 4)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(20, 4)
	base, span, parity := encodeGroup(t, e, pkts)

	var recs []Recovered
	recs = d.OnData(pkts[0].seq, pkts[0].flags, pkts[0].msgID, pkts[0].frag, pkts[0].fragCnt, pkts[0].attrs, pkts[0].payload, 1, recs)
	recs = d.OnData(pkts[3].seq, pkts[3].flags, pkts[3].msgID, pkts[3].frag, pkts[3].fragCnt, pkts[3].attrs, pkts[3].payload, 2, recs)
	recs = d.OnRepair(base, span, parity, 21, 3, recs)
	if len(recs) != 0 {
		t.Fatalf("recovered with two holes: %+v", recs)
	}
	// Retransmission of pkts[1] arrives; pkts[2] must be reconstructed.
	recs = d.OnData(pkts[1].seq, pkts[1].flags, pkts[1].msgID, pkts[1].frag, pkts[1].fragCnt, pkts[1].attrs, pkts[1].payload, 4, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], pkts[2])
}

func TestAttrsSurviveReconstruction(t *testing.T) {
	e := NewEncoder(XOR{}, 2)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(5, 2)
	pkts[1].attrs = attr.NewList(
		attr.Attr{Name: attr.Marked, Value: attr.Bool(true)},
		attr.Attr{Name: attr.Deadline, Value: attr.Float(0.25)},
		attr.Attr{Name: "APP_KEY", Value: attr.String_("v")},
	)
	base, span, parity := encodeGroup(t, e, pkts)

	var recs []Recovered
	recs = d.OnData(pkts[0].seq, pkts[0].flags, pkts[0].msgID, pkts[0].frag, pkts[0].fragCnt, pkts[0].attrs, pkts[0].payload, 1, recs)
	recs = d.OnRepair(base, span, parity, 5, 2, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], pkts[1])
	got := recs[0].Attrs
	if got.Len() != 3 {
		t.Fatalf("Attrs.Len = %d, want 3", got.Len())
	}
	if v, err := got.Float(attr.Deadline); err != nil || v != 0.25 {
		t.Errorf("Deadline = %v, %v", v, err)
	}
	want, _ := attr.AppendEncode(nil, pkts[1].attrs)
	back, _ := attr.AppendEncode(nil, got)
	if !bytes.Equal(want, back) {
		t.Errorf("attr block not byte-identical after reconstruction")
	}
}

func TestAgedOutGroupDropped(t *testing.T) {
	// A member below rcvNxt that no longer sits in the history ring can
	// never be folded: the group must be discarded, not parked.
	e := NewEncoder(XOR{}, 3)
	d := NewDecoder(XOR{}, 4) // tiny ring
	pkts := mkPkts(100, 3)
	base, span, parity := encodeGroup(t, e, pkts)

	var recs []Recovered
	// Only pkts[2] is in the ring; pkts[0] was delivered long ago (rcvNxt
	// past it) and pkts[1] was lost.
	recs = d.OnData(pkts[2].seq, pkts[2].flags, pkts[2].msgID, pkts[2].frag, pkts[2].fragCnt, pkts[2].attrs, pkts[2].payload, 1, recs)
	recs = d.OnRepair(base, span, parity, 101, 2, recs)
	if len(recs) != 0 {
		t.Fatalf("recovered from dead group: %+v", recs)
	}
	if len(d.groups) != 0 {
		t.Fatalf("dead group parked: %d groups", len(d.groups))
	}
}

func TestEncoderContiguityReset(t *testing.T) {
	e := NewEncoder(XOR{}, 4)
	p := mkPkts(0, 1)[0]
	e.Add(7, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload)
	e.Add(8, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload)
	// Gap: sequence 10 restarts the group.
	e.Add(10, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload)
	if e.Base() != 10 || e.Pending() != 1 {
		t.Fatalf("after gap: base=%d pending=%d, want 10,1", e.Base(), e.Pending())
	}
}

func TestPartialFlush(t *testing.T) {
	e := NewEncoder(XOR{}, 8)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(40, 3)
	for _, p := range pkts {
		if e.Add(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload) {
			t.Fatal("group full before K")
		}
	}
	base, span, parity, ok := e.Flush()
	if !ok || base != 40 || span != 3 {
		t.Fatalf("Flush = (%d,%d,%v)", base, span, ok)
	}
	var recs []Recovered
	for _, p := range pkts[:2] {
		recs = d.OnData(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload, 1, recs)
	}
	recs = d.OnRepair(base, span, append([]byte(nil), parity...), 40, 2, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], pkts[2])
	if _, _, _, ok := e.Flush(); ok {
		t.Fatal("second Flush reported an open group")
	}
}

func TestHoleOpenAt(t *testing.T) {
	e := NewEncoder(XOR{}, 4)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(60, 4)
	base, span, parity := encodeGroup(t, e, pkts)

	var recs []Recovered
	// pkts[1] lost; later members arrive at t=50,60, earlier at t=40.
	recs = d.OnData(pkts[0].seq, pkts[0].flags, pkts[0].msgID, pkts[0].frag, pkts[0].fragCnt, pkts[0].attrs, pkts[0].payload, 40, recs)
	recs = d.OnData(pkts[2].seq, pkts[2].flags, pkts[2].msgID, pkts[2].frag, pkts[2].fragCnt, pkts[2].attrs, pkts[2].payload, 50, recs)
	recs = d.OnData(pkts[3].seq, pkts[3].flags, pkts[3].msgID, pkts[3].frag, pkts[3].fragCnt, pkts[3].attrs, pkts[3].payload, 60, recs)
	recs = d.OnRepair(base, span, parity, 61, 90, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	// The hole after seq 61 became observable when seq 62 arrived at t=50.
	if recs[0].HoleOpenAt != 50 {
		t.Errorf("HoleOpenAt = %d, want 50", recs[0].HoleOpenAt)
	}
}

func TestGroupEvictionBound(t *testing.T) {
	e := NewEncoder(XOR{}, 2)
	d := NewDecoder(XOR{}, 0)
	// Park far more unrecoverable groups (both members missing, above
	// rcvNxt) than the bound allows.
	for i := 0; i < 3*groupsMax; i++ {
		base := uint32(1000 + 2*i)
		pkts := mkPkts(base, 2)
		_, span, parity := encodeGroup(t, e, pkts)
		if recs := d.OnRepair(base, span, parity, 1000, 1, nil); len(recs) != 0 {
			t.Fatalf("recovered from empty group %d", i)
		}
	}
	if len(d.groups) > groupsMax {
		t.Fatalf("parked %d groups, bound is %d", len(d.groups), groupsMax)
	}
}

func TestDuplicateRepairIgnored(t *testing.T) {
	e := NewEncoder(XOR{}, 2)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(80, 2)
	base, span, parity := encodeGroup(t, e, pkts)
	var recs []Recovered
	recs = d.OnRepair(base, span, parity, 80, 1, recs)
	recs = d.OnRepair(base, span, parity, 80, 2, recs)
	if len(recs) != 0 || len(d.groups) != 1 {
		t.Fatalf("duplicate repair mishandled: %d recs, %d groups", len(recs), len(d.groups))
	}
	// One member arrives, leaving a single hole: the parked group closes.
	recs = d.OnData(pkts[0].seq, pkts[0].flags, pkts[0].msgID, pkts[0].frag, pkts[0].fragCnt, pkts[0].attrs, pkts[0].payload, 3, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], pkts[1])
}

func TestSpanWrapAround(t *testing.T) {
	// Group straddling the uint32 sequence wrap.
	e := NewEncoder(XOR{}, 4)
	d := NewDecoder(XOR{}, 0)
	pkts := mkPkts(0xFFFFFFFE, 4) // seqs fffffffe, ffffffff, 0, 1
	base, span, parity := encodeGroup(t, e, pkts)
	if base != 0xFFFFFFFE || span != 4 {
		t.Fatalf("group = (%#x,%d)", base, span)
	}
	var recs []Recovered
	for i, p := range pkts {
		if p.seq == 0 {
			continue
		}
		recs = d.OnData(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload, time.Duration(i), recs)
	}
	recs = d.OnRepair(base, span, parity, 0xFFFFFFFE, 10, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], pkts[2])
}

func TestBadRepairRejected(t *testing.T) {
	d := NewDecoder(XOR{}, 0)
	if recs := d.OnRepair(0, 0, make([]byte, 64), 0, 1, nil); len(recs) != 0 || len(d.groups) != 0 {
		t.Error("zero-span repair accepted")
	}
	if recs := d.OnRepair(0, GroupMax+1, make([]byte, 64), 0, 1, nil); len(recs) != 0 || len(d.groups) != 0 {
		t.Error("oversized-span repair accepted")
	}
	if recs := d.OnRepair(0, 2, []byte{1, 2}, 0, 1, nil); len(recs) != 0 || len(d.groups) != 0 {
		t.Error("runt parity accepted")
	}
}

// The encoder reuses its accumulator across groups: a group of short units
// following a group of long ones must not inherit the old parity's tail.
func TestEncoderReusesAccumulatorAcrossGroups(t *testing.T) {
	e := NewEncoder(XOR{}, 4)
	long := mkPkts(0, 4)
	for i := range long {
		long[i].payload = bytes.Repeat([]byte{0xA5}, 900)
	}
	encodeGroup(t, e, long)
	short := mkPkts(4, 4)
	base, span, parity := encodeGroup(t, e, short)
	d := NewDecoder(XOR{}, 0)
	var recs []Recovered
	for _, p := range short[1:] {
		recs = d.OnData(p.seq, p.flags, p.msgID, p.frag, p.fragCnt, p.attrs, p.payload, 1, recs)
	}
	recs = d.OnRepair(base, span, parity, base, 2, recs)
	if len(recs) != 1 {
		t.Fatalf("got %d recoveries, want 1", len(recs))
	}
	checkRecovered(t, recs[0], short[0])
}

// TestEncoderSteadyStateZeroAlloc: once the accumulator and unit scratch
// have grown, Add…Flush cycles allocate nothing.
func TestEncoderSteadyStateZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := NewEncoder(XOR{}, 16)
	payloads := [][]byte{make([]byte, 1200), make([]byte, 300), make([]byte, 1400)}
	seq := uint32(1)
	cycle := func() {
		for i := 0; i < 16; i++ {
			e.Add(seq, packet.FlagMarked, seq, 0, 1, nil, payloads[i%len(payloads)])
			seq++
		}
		if _, _, _, ok := e.Flush(); !ok {
			t.Fatal("no group to flush")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Add…Flush cycle allocates %.1f objects, want 0", n)
	}
}
