package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded only by the benchmark, around each call it makes
// into a layer. A disabled tracer records nothing and costs one branch,
// so the untraced run measures the system alone.

// span is one timed call: Start and End are offsets from the tracer's
// origin; Parent 0 marks a root; Req groups the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (calls
// running concurrently under one parent) are merged first, so covered
// time is never counted twice.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// treeRow aggregates every span with the same name path.
type treeRow struct {
	Path      string
	Count     int
	TotalMS   float64
	SelfMS    float64
	Depth     int
	MeanMS    float64
	SelfShare float64
}

// spanTree aggregates spans by their name path ("root/child/...").
func spanTree(spans []span) []treeRow {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	rows := map[string]*treeRow{}
	var totalSelf float64
	for _, s := range spans {
		parts := []string{s.Name}
		for p := s.Parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				break
			}
			parts = append(parts, ps.Name)
			p = ps.Parent
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		path := strings.Join(parts, "/")
		r := rows[path]
		if r == nil {
			r = &treeRow{Path: path, Depth: len(parts) - 1}
			rows[path] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(self[s.ID]) / 1e6
		totalSelf += float64(self[s.ID]) / 1e6
	}
	out := make([]treeRow, 0, len(rows))
	for _, r := range rows {
		r.MeanMS = r.TotalMS / float64(r.Count)
		if totalSelf > 0 {
			r.SelfShare = r.SelfMS / totalSelf
		}
		out = append(out, *r)
	}
	// Sort by path segments so every child row follows its parent.
	key := func(p string) string { return strings.ReplaceAll(p, "/", "\x00") }
	sort.Slice(out, func(i, j int) bool { return key(out[i].Path) < key(out[j].Path) })
	return out
}

// printTree writes the aggregated span tree, one row per name path.
func printTree(w io.Writer, rows []treeRow) {
	fmt.Fprintf(w, "span tree (self = duration minus time covered by child spans)\n")
	fmt.Fprintf(w, "  %-48s %7s %11s %10s %11s %7s\n", "span", "count", "total_ms", "mean_ms", "self_ms", "self%")
	for _, r := range rows {
		name := strings.Repeat("  ", r.Depth) + r.Path[strings.LastIndex(r.Path, "/")+1:]
		fmt.Fprintf(w, "  %-48s %7d %11.1f %10.3f %11.1f %6.1f%%\n", name, r.Count, r.TotalMS, r.MeanMS, r.SelfMS, 100*r.SelfShare)
	}
}

// writeSpans writes every closed span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
