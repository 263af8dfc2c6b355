package main

import (
	"sync"

	"github.com/cercs/iqrudp/internal/trace"
)

// rtoTracer counts retransmissions and how many of them an RTO expiry
// triggered (an RTOFired event followed at the same instant by the
// retransmission of the same sequence number). The simulator drives it from
// one goroutine; socket connections may share one, hence the lock.
type rtoTracer struct {
	mu      sync.Mutex
	rtx     uint64
	rtoRtx  uint64
	lastRTO trace.Event
	haveRTO bool

	dataBytes   uint64 // first transmissions' payload
	repairBytes uint64 // FEC parity payload
}

func (t *rtoTracer) Trace(ev trace.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Type {
	case trace.RTOFired:
		t.lastRTO, t.haveRTO = ev, true
	case trace.FecRepairSent:
		t.repairBytes += uint64(ev.Size)
	case trace.PacketSent:
		t.dataBytes += uint64(ev.Size)
	case trace.PacketRetransmitted:
		t.rtx++
		if t.haveRTO && ev.Time == t.lastRTO.Time && ev.Seq == t.lastRTO.Seq {
			t.rtoRtx++
		}
	}
}
