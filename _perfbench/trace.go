package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    uint64 `json:"req"`    // request id shared by one request's spans; 0 for none
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// the untraced run pays nothing for tracing.
type tracer struct {
	epoch time.Time
	reqs  atomic.Uint64 // last request id handed out

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request returns a fresh request id for a request's spans (0 when
// tracing is off).
func (t *tracer) request() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// spanStats summarizes the closed spans of one name.
type spanStats struct {
	Count   int
	P50     time.Duration // median duration
	SelfP50 time.Duration // median duration minus the time child spans cover
}

// summary groups the closed spans by name. A span's self time is its
// duration less the union of its children's intervals.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(covered(t.spans, children[i])))
	}
	out := make(map[string]spanStats, len(durs))
	for name, ds := range durs {
		out[name] = spanStats{
			Count:   len(ds),
			P50:     time.Duration(quantile(ds, 0.5)),
			SelfP50: time.Duration(quantile(selfs[name], 0.5)),
		}
	}
	return out
}

// covered returns the length of the union of the closed spans' intervals.
func covered(spans []span, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		if spans[i].End >= 0 {
			ivs = append(ivs, iv{spans[i].Start, spans[i].End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSummary prints one line per span name: count, median duration
// and median self time.
func (t *tracer) writeSummary(w io.Writer) {
	sum := t.summary()
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sum[name]
		fmt.Fprintf(w, "span %-28s n=%-7d p50=%-12v self_p50=%v\n", name, s.Count, s.P50, s.SelfP50)
	}
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
