package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// A selective ack parks a packet in the peer's out-of-order buffer; it does
// not prove delivery. A connection that dies while the hole in front of a
// sacked message is still open loses that buffer with the connection (SACK
// reneging), so the resume carryover must re-send the message anyway — only
// the cumulative ack exempts it.
func TestCarryoverIncludesSackedUndelivered(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	if err := m.Send([]byte("hole"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("parked"), true); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, p := range env.emitted {
		if p.Type == packet.DATA {
			seqs = append(seqs, p.Seq)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("emitted %d DATA packets, want 2", len(seqs))
	}

	// The first packet is lost on the wire; the second arrives out of order.
	// The peer EACKs it without moving the cumulative ack.
	m.HandlePacket(&packet.Packet{Type: packet.EACK, Ack: seqs[0], Wnd: 64, Eacks: []uint32{seqs[1]}})

	m.Abort()
	carry := m.CarryoverMarked()
	if len(carry) != 2 {
		t.Fatalf("carried %d messages, want 2 (sacked-but-undelivered must be re-sent)", len(carry))
	}
	if !bytes.Equal(carry[0], []byte("hole")) || !bytes.Equal(carry[1], []byte("parked")) {
		t.Fatalf("carry = %q, %q", carry[0], carry[1])
	}
}

// A message the cumulative ack has fully covered left the flight entirely:
// the peer delivered it in order, so the carryover must not duplicate it.
func TestCarryoverExcludesCumAcked(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	if err := m.Send([]byte("delivered"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("stranded"), true); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, p := range env.emitted {
		if p.Type == packet.DATA {
			seqs = append(seqs, p.Seq)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("emitted %d DATA packets, want 2", len(seqs))
	}

	// Cumulative ack past the first packet only.
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Ack: seqs[1], Wnd: 64})

	m.Abort()
	carry := m.CarryoverMarked()
	if len(carry) != 1 {
		t.Fatalf("carried %d messages, want 1", len(carry))
	}
	if !bytes.Equal(carry[0], []byte("stranded")) {
		t.Fatalf("carry[0] = %q, want \"stranded\"", carry[0])
	}
}

// The same rule holds for an orderly close: a FIN must not overtake data
// the receiver still parks out of order. Here an unmarked message is
// abandoned unsent (its deadline passed while the window was full), so
// nothing counts as in flight once the marked message behind it is sacked
// — yet the receiver cannot deliver that message until the forward point
// reaches it. A FIN sent now would make the receiver drop its out-of-order
// buffer, and the marked message with it; the FIN must wait for the
// cumulative ack to cover the whole flight.
func TestFinWaitsForCumulativeAck(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	dataSeqs := func() []uint32 {
		var seqs []uint32
		for _, p := range env.emitted {
			if p.Type == packet.DATA {
				seqs = append(seqs, p.Seq)
			}
		}
		return seqs
	}
	finSent := func() bool {
		for _, p := range env.emitted {
			if p.Type == packet.FIN {
				return true
			}
		}
		return false
	}
	// Two marked messages fill the initial window; an unmarked one with a
	// 1 ms deadline and a marked one queue behind them.
	for _, msg := range []string{"x", "y"} {
		if err := m.Send([]byte(msg), true); err != nil {
			t.Fatal(err)
		}
	}
	deadline := attr.NewList(attr.Attr{Name: attr.Deadline, Value: attr.Float(0.001)})
	if err := m.SendMsg([]byte("late"), false, deadline); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("parked"), true); err != nil {
		t.Fatal(err)
	}
	if seqs := dataSeqs(); len(seqs) != 2 {
		t.Fatalf("emitted %d DATA packets before the window opened, want 2", len(seqs))
	}
	env.now += 10 * time.Millisecond // the unmarked message's deadline passes

	// Cumulative ack of both: the unmarked message is abandoned unsent and
	// the marked one behind it goes out.
	seqs := dataSeqs()
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Ack: seqs[1] + 1, Wnd: 64})
	seqs = dataSeqs()
	if len(seqs) != 3 || seqs[2] != seqs[1]+2 {
		t.Fatalf("DATA seqs %v: want the unmarked message skipped unsent", seqs)
	}
	parked := seqs[2]
	// The receiver parks it out of order: sacked, cumulative ack still at
	// the abandoned seq.
	m.HandlePacket(&packet.Packet{Type: packet.EACK, Ack: parked - 1, Wnd: 64, Eacks: []uint32{parked}})
	if got := m.Metrics().InFlight; got != 0 {
		t.Fatalf("InFlight = %d, want 0 (skipped + sacked)", got)
	}

	m.Close()
	if finSent() {
		t.Fatal("FIN sent while the receiver still parks sacked data behind a skipped packet")
	}
	// The forward point lands and the cumulative ack covers the flight.
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Ack: parked + 1, Wnd: 64})
	if !finSent() {
		t.Fatal("FIN not sent once the whole flight was acknowledged")
	}
}
