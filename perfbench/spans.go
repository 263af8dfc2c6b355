package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanRec records spans around calls into the layers under test, for one
// goroutine (so no locking): every span's count, total and self time
// (duration minus the time its child spans cover) is aggregated exactly, and
// the most recent raw spans are kept in a bounded ring written out at exit.
// A nil *spanRec records nothing, so untraced runs pay one nil check.
type spanRec struct {
	who   string
	base  time.Time
	ids   map[string]int
	names []string
	agg   []spanAgg
	stack []openSpan
	ring  []rawSpan
	total uint64
}

type spanAgg struct {
	Count  uint64
	Total  time.Duration
	Self   time.Duration
	MaxDur time.Duration
}

type openSpan struct {
	name   int
	start  time.Duration
	child  time.Duration
	parent int64 // ring sequence of the parent span, -1 at the root
	op     uint64
	seq    int64
}

type rawSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Seq    int64  `json:"seq"`
	Op     uint64 `json:"op"`
}

const spanRingLen = 1 << 14

func newSpanRec(who string) *spanRec {
	return &spanRec{who: who, base: time.Now(), ids: map[string]int{}}
}

// begin opens a span named name for operation op; pair with end.
func (r *spanRec) begin(name string, op uint64) {
	if r == nil {
		return
	}
	id, ok := r.ids[name]
	if !ok {
		id = len(r.names)
		r.ids[name] = id
		r.names = append(r.names, name)
		r.agg = append(r.agg, spanAgg{})
	}
	parent := int64(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].seq
	}
	seq := int64(r.total)
	r.total++
	r.stack = append(r.stack, openSpan{name: id, start: time.Since(r.base), parent: parent, op: op, seq: seq})
}

// end closes the innermost open span.
func (r *spanRec) end() {
	if r == nil {
		return
	}
	n := len(r.stack)
	s := r.stack[n-1]
	r.stack = r.stack[:n-1]
	now := time.Since(r.base)
	d := now - s.start
	a := &r.agg[s.name]
	a.Count++
	a.Total += d
	a.Self += d - s.child
	if d > a.MaxDur {
		a.MaxDur = d
	}
	if n > 1 {
		r.stack[n-2].child += d
	}
	raw := rawSpan{Name: r.names[s.name], Start: int64(s.start), End: int64(now), Parent: s.parent, Seq: s.seq, Op: s.op}
	if len(r.ring) < spanRingLen {
		r.ring = append(r.ring, raw)
	} else {
		r.ring[s.seq%spanRingLen] = raw
	}
}

// spanTotals merges several recorders' aggregates by span name.
func spanTotals(recs ...*spanRec) map[string]spanAgg {
	out := map[string]spanAgg{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i, name := range r.names {
			a, b := out[name], r.agg[i]
			a.Count += b.Count
			a.Total += b.Total
			a.Self += b.Self
			if b.MaxDur > a.MaxDur {
				a.MaxDur = b.MaxDur
			}
			out[name] = a
		}
	}
	return out
}

// writeSpans dumps the aggregates and the retained raw spans as JSONL.
func writeSpans(path string, recs ...*spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tot := spanTotals(recs...)
	names := make([]string, 0, len(tot))
	for k := range tot {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := tot[k]
		if err := enc.Encode(map[string]any{"summary": k, "count": a.Count, "total_ns": a.Total, "self_ns": a.Self, "max_ns": a.MaxDur}); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.ring {
			if err := enc.Encode(struct {
				Who string `json:"who"`
				rawSpan
			}{r.who, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// perOp is a span's mean duration in ns per call.
func (a spanAgg) perOp() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.Count)
}
