package main

import "strings"

// Per-layer metrics of the traced runs. Each workload reports every metric;
// a layer the workload bypasses reports 0 (the rationale lists which).

// serveLayers derives the serve engine's metrics from two sink snapshots
// around ops operations.
func serveLayers(res *result, before, tot totalsReport, ops float64) (rxPerOp, txPerOp, armsPerOp, eventsPerOp, recordsPerOp float64) {
	var rxP, rxB, txP, txB, arms uint64
	for i, sh := range tot.Stats.Shards {
		rxP, rxB, txP, txB, arms = rxP+sh.RxPackets, rxB+sh.RxBatches, txP+sh.TxPackets, txB+sh.TxBatches, arms+sh.TimerArms
		if i < len(before.Stats.Shards) {
			b := before.Stats.Shards[i]
			rxP, rxB, txP, txB, arms = rxP-b.RxPackets, rxB-b.RxBatches, txP-b.TxPackets, txB-b.TxBatches, arms-b.TimerArms
		}
	}
	hit := tot.Gauges["serve.pool.hit"] - before.Gauges["serve.pool.hit"]
	miss := tot.Gauges["serve.pool.miss"] - before.Gauges["serve.pool.miss"]
	accepted := float64(tot.Stats.Accepted - before.Stats.Accepted)
	res.set("serve.rx_batch_mean", "count", ratio(float64(rxP), float64(rxB)))
	res.set("serve.tx_flushes_per_kpkt", "count", 1000*ratio(float64(txB), float64(txP)))
	res.set("serve.pool_hit_ratio", "ratio", ratio(hit, hit+miss))
	res.set("serve.timer_arms_per_op", "count", ratio(float64(arms), ops))
	res.set("serve.dispatch_p99_us", "us", tot.DispatchP99/1e3)
	res.set("serve.wheel_lateness_p99_us", "us", tot.WheelLateP99/1e3)
	res.set("serve.accept_ns", "ns", tot.AcceptNs)
	res.set("serve.retry_sent_per_conn", "ratio", ratio(float64(tot.Stats.RetrySent-before.Stats.RetrySent), accepted))
	res.set("serve.cookie_rejects", "count", float64(tot.Stats.CookieRejects-before.Stats.CookieRejects))
	res.set("serve.refused", "count", float64(tot.Stats.Refused-before.Stats.Refused))
	res.set("serve.flight_records", "count", float64(tot.FlightRecords-before.FlightRecords))
	res.set("udpwire.recv_wait_ns", "ns", tot.RecvWaitNs)
	eventsPerOp = ratio(float64(tot.TraceEvents-before.TraceEvents), ops)
	recordsPerOp = ratio(float64(tot.HistRecords-before.HistRecords), ops)
	res.set("trace.events_per_op", "count", eventsPerOp)
	res.set("hist.records_per_op", "count", recordsPerOp)
	return ratio(float64(rxP), ops), ratio(float64(txP), ops), ratio(float64(arms), ops), eventsPerOp, recordsPerOp
}

// clientLayers reports the generator side's udpwire metrics.
func clientLayers(res *result, tot map[string]spanAgg, sent, rtx, txErr uint64, rt *rtoTracer, msgs float64) {
	res.set("udpwire.send_ns", "ns", tot["udpwire.Conn.Send"].perOp())
	res.set("udpwire.dial_ns", "ns", tot["udpwire.Dial"].perOp())
	res.set("udpwire.close_ns", "ns", tot["udpwire.Conn.Close"].perOp())
	res.set("udpwire.rtx_per_kpkt", "count", 1000*ratio(float64(rtx), float64(sent)))
	res.set("udpwire.tx_errors", "count", float64(txErr))
	res.set("core.rtx_per_kmsg", "count", 1000*ratio(float64(rtx), msgs))
	if rt != nil {
		rt.mu.Lock()
		res.set("core.rto_share", "ratio", ratio(float64(rt.rtoRtx), float64(rt.rtx)))
		rt.mu.Unlock()
	}
}

// idleLayers reports 0 for the layers a workload bypasses.
func idleLayers(res *result, names ...string) {
	for _, n := range names {
		res.set(n, unitOf(n), 0)
	}
}

// unitOf is the unit a per-layer metric is reported in, from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_per_repair"), strings.HasSuffix(name, "_per_conn"):
		return "ratio"
	}
	return "count"
}

var (
	simOnly = []string{"sim.events_per_op", "netem.drop_ratio", "netem.queue_p99_pkts",
		"fec.recovered_per_repair", "fec.repair_bytes_ratio"}
	liveOnly = []string{"udpwire.send_ns", "udpwire.send_backlog_max_pkts", "udpwire.dial_ns",
		"udpwire.close_ns", "udpwire.recv_wait_ns", "udpwire.rtx_per_kpkt", "udpwire.tx_errors",
		"serve.rx_batch_mean", "serve.tx_flushes_per_kpkt", "serve.pool_hit_ratio",
		"serve.timer_arms_per_op", "serve.dispatch_p99_us", "serve.wheel_lateness_p99_us",
		"serve.accept_ns", "serve.retry_sent_per_conn", "serve.cookie_rejects", "serve.refused",
		"serve.flight_records"}
)

// benchLayers reports the benchmark's own health and the unaccounted cost.
func benchLayers(res *result, genLateUs, plainCPU, tracedCPU, ledgerUs float64) {
	res.set("bench.gen_late_p99_us", "us", genLateUs)
	res.set("bench.trace_overhead_ratio", "ratio", ratio(tracedCPU, plainCPU))
	res.set("bench.unaccounted_us_per_op", "us", plainCPU-ledgerUs)
	res.named("bench.ledger_us_per_op", "us", ledgerUs)
	res.named("cpu_us_per_op_untraced", "us", plainCPU)
	res.named("cpu_us_per_op_traced", "us", tracedCPU)
}

func wireLayers(res *result, plain, traced *wirePassOut, ns map[string]float64) {
	ops := float64(traced.delivered)
	rxPerOp, txPerOp, armsPerOp, evPerOp, recPerOp := serveLayers(res, traced.before, traced.tot, ops)
	g := traced.g
	var sent, rtx, txErr uint64
	for _, c := range g.conns {
		m := c.Metrics()
		sent, rtx, txErr = sent+m.SentPackets, rtx+m.Retransmits, txErr+m.TxErrors
	}
	clientLayers(res, spanTotals(g.rec), sent, rtx, txErr, g.rtx, float64(sum(g.marked)+sum(g.unmarked)))
	backlogMax := 0.0
	for _, b := range g.backlog {
		backlogMax = max(backlogMax, b)
	}
	res.set("udpwire.send_backlog_max_pkts", "count", backlogMax)
	idleLayers(res, simOnly...)
	// Sink cost per delivered message: each datagram in is received,
	// decoded and handled; each datagram out (acks) is encoded and sent.
	ledgerNs := rxPerOp*(ns["uio.rx_ns_per_dgram"]+ns["packet.decode_data_ns"]+ns["core.handle_data_ns"]) +
		txPerOp*(ns["uio.tx_ns_per_dgram"]+ns["packet.encode_ack_ns"]) +
		armsPerOp*ns["wheel.arm_ns"] + evPerOp*ns["trace.ring_ns"] + recPerOp*ns["hist.record_ns"]
	benchLayers(res, plain.genLateP99/1e3, plain.cpuPerOp, traced.cpuPerOp, ledgerNs/1e3)
}

func churnLayers(res *result, plain, traced *churnOut, ns map[string]float64) {
	ops := float64(traced.cycles)
	rxPerOp, txPerOp, armsPerOp, evPerOp, recPerOp := serveLayers(res, traced.before, traced.tot, ops)
	var recs []*spanRec
	var sent, rtx, txErr uint64
	rt := &rtoTracer{}
	for _, cl := range traced.clients {
		recs = append(recs, cl.rec)
		sent, rtx, txErr = sent+cl.metrics.SentPackets, rtx+cl.metrics.Retransmits, txErr+cl.metrics.TxErrors
		if cl.rtx != nil {
			cl.rtx.mu.Lock()
			rt.rtx += cl.rtx.rtx
			rt.rtoRtx += cl.rtx.rtoRtx
			cl.rtx.mu.Unlock()
		}
	}
	clientLayers(res, spanTotals(recs...), sent, rtx, txErr, rt, ops*churnMsgs)
	res.set("udpwire.send_backlog_max_pkts", "count", 0)
	idleLayers(res, simOnly...)
	// Sink cost per connection cycle: the handshake's cookie work plus every
	// datagram in and out.
	ledgerNs := rxPerOp*(ns["uio.rx_ns_per_dgram"]+ns["packet.decode_data_ns"]+ns["core.handle_data_ns"]) +
		txPerOp*(ns["uio.tx_ns_per_dgram"]+ns["packet.encode_ack_ns"]) +
		ns["guard.mint_ns"] + ns["guard.verify_ns"] + ns["guard.prefix_allow_ns"] +
		armsPerOp*ns["wheel.arm_ns"] + evPerOp*ns["trace.ring_ns"] + recPerOp*ns["hist.record_ns"]
	benchLayers(res, 0, plain.cpuPerOp, traced.cpuPerOp, ledgerNs/1e3)
}

func simLayers(res *result, plain []simOutcome, traced simOutcome, rec *spanRec, tr *rtoTracer, ns map[string]float64) {
	first := plain[0]
	delivered := float64(first.MarkedGot + first.UnmarkedGot)
	m, rm := first.Metrics, first.RcvMetrics
	res.set("core.rtx_per_kmsg", "count", 1000*ratio(float64(m.Retransmits), float64(first.Frames)))
	res.set("core.rto_share", "ratio", ratio(float64(tr.rtoRtx), float64(tr.rtx)))
	res.set("fec.recovered_per_repair", "ratio", ratio(float64(rm.FecRecovered), float64(m.FecRepairsSent)))
	res.set("fec.repair_bytes_ratio", "ratio", ratio(float64(tr.repairBytes), float64(tr.dataBytes)))
	res.set("sim.events_per_op", "count", ratio(float64(first.Fired), delivered))
	res.set("netem.drop_ratio", "ratio", ratio(float64(first.BottleDropped), float64(first.BottleSent+first.BottleDropped)))
	res.set("netem.queue_p99_pkts", "count", quantile(sortedCopy(traced.QueueSamples), 0.99))
	// The sim machines run without a tracer or histograms.
	res.set("trace.events_per_op", "count", 0)
	res.set("hist.records_per_op", "count", 0)
	res.set("bench.gen_late_p99_us", "us", 0)
	idleLayers(res, liveOnly...)
	// Process cost per delivered frame: every scheduler event, and each data
	// packet, ack and repair through codec, machine and FEC.
	dataPerOp := ratio(float64(m.SentPackets), delivered)
	ackPerOp := ratio(float64(first.AckFrames), delivered)
	repPerOp := ratio(float64(m.FecRepairsSent), delivered)
	ledgerNs := ratio(float64(first.Fired), delivered)*ns["sim.step_ns"] +
		ratio(float64(first.Frames), delivered)*ns["core.send_ns_per_msg"] +
		dataPerOp*(ns["packet.encode_data_ns"]+ns["packet.decode_alloc_ns"]+ns["core.handle_data_ns"]+ns["fec.add_ns"]+ns["fec.ondata_ns"]) +
		ackPerOp*(ns["packet.encode_ack_ns"]+ns["packet.decode_alloc_ns"]+ns["core.handle_ack_lossy_ns"]) +
		repPerOp*(ns["fec.flush_ns"]+ns["packet.encode_data_ns"]+ns["packet.decode_alloc_ns"]+ns["fec.onrepair_ns"])
	var cpus []float64
	for _, r := range plain {
		cpus = append(cpus, float64(r.cpu)/1e3/float64(r.MarkedGot+r.UnmarkedGot))
	}
	plainCPU := median(cpus)
	tracedCPU := float64(traced.cpu) / 1e3 / float64(traced.MarkedGot+traced.UnmarkedGot)
	benchLayers(res, 0, plainCPU, tracedCPU, ledgerNs/1e3)
	tot := spanTotals(rec)
	res.named("core.HandlePacket.data_self_ns", "ns", float64(tot["core.HandlePacket.data"].Self)/float64(max(tot["core.HandlePacket.data"].Count, 1)))
}
