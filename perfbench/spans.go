package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function or callback it crosses. Spans of one record share
// Trace; Parent is the span ID of the caller (0 for a root). Wait spans
// ("…_wait") cover time a record or cycle spent blocked between calls.
type span struct {
	ID     uint64
	Parent uint64
	Trace  uint64
	Name   string
	Start  int64 // ns since the recorder's base
	End    int64
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type spanRecorder struct {
	base   time.Time
	sample uint64 // records traced 1 in sample
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newSpanRecorder(sample uint64) *spanRecorder {
	return &spanRecorder{base: time.Now(), sample: sample, spans: make([]span, 0, 1<<16)}
}

// now returns ns since the recorder's base (monotonic).
func (r *spanRecorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// sampled reports whether record id is traced.
func (r *spanRecorder) sampled(id uint64) bool { return r != nil && id%r.sample == 0 }

// newID reserves a span ID, so a parent can be named before it ends.
func (r *spanRecorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span and returns its ID (id 0 reserves a new one).
func (r *spanRecorder) add(id, parent, trace uint64, name string, start, end int64) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string
	Count   int
	TotalNs int64 // summed span durations
	SelfNs  int64 // durations minus the part covered by child spans
	Wait    bool  // a waiting span rather than a busy one
}

// MeanSelfNs returns the mean self time per span.
func (l layerTime) MeanSelfNs() float64 { return float64(l.SelfNs) / float64(max(l.Count, 1)) }

// selfTimes aggregates the recorded spans by name. A span's self time is
// its duration minus the union of its children's intervals, clipped to
// the span — children may overlap when they ran in a worker pool.
func (r *spanRecorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name, Wait: isWait(s.Name)}
			rows[s.Name] = row
		}
		d := s.End - s.Start
		row.Count++
		row.TotalNs += d
		row.SelfNs += d - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func isWait(name string) bool {
	return len(name) > 5 && name[len(name)-5:] == "_wait"
}

// durations returns the durations [ns] of the spans named name.
func (r *spanRecorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfDurations returns the self times [ns] of the spans named name, and
// each span's Trace field.
func (r *spanRecorder) selfDurations(name string) ([]float64, []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	var traces []uint64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])))
			traces = append(traces, s.Trace)
		}
	}
	return out, traces
}

// writeFile writes the spans as JSON lines to path.
func (r *spanRecorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *spanRecorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, s := range r.spans {
		fmt.Fprintf(bw, `{"span":%d,"parent":%d,"trace":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End)
	}
	return bw.Flush()
}

// writeSelfTable prints the per-layer self-time table.
func writeSelfTable(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-28s %5s %10s %12s %12s %12s\n", "layer", "kind", "spans", "total_ms", "self_ms", "self_ns/span")
	for _, r := range rows {
		kind := "busy"
		if r.Wait {
			kind = "wait"
		}
		fmt.Fprintf(w, "%-28s %5s %10d %12.3f %12.3f %12.1f\n", r.Name, kind, r.Count,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, r.MeanSelfNs())
	}
}

// queuedAt returns when a record's Ingest returned, as stored by the
// producer. Apply can begin before Ingest returns; the wait is then empty.
func queuedAt(end *atomic.Int64, applyStart int64) int64 {
	if t := end.Load(); t != 0 && t < applyStart {
		return t
	}
	return applyStart
}
