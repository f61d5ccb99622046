package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// layer is the span name's first dot-separated component.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer keeps spans in memory; nothing is written until flush. A nil
// tracer records nothing, which is how the untraced run is made.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// took returns the duration of span i in nanoseconds.
func (t *tracer) took(i int) float64 {
	return float64(t.spans[i].End - t.spans[i].Start)
}

// flush writes every span as one JSON line.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children of one parent may
// overlap each other (the union is subtracted, not the sum), and a child
// reaching outside its parent is clipped to it.
func selfTimes(spans []span) ([]int64, error) {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent >= 0 {
			if s.Parent >= i {
				return nil, fmt.Errorf("span %d (%s) has a later parent", i, s.Name)
			}
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, v := range iv {
			if open && v[0] <= curHi {
				curHi = max(curHi, v[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self, nil
}

// ledger sums self time per layer under the root span (index 0). The
// root's own self time is the unattributed remainder, so the layer totals
// plus the remainder equal the root's duration exactly.
type ledger struct {
	Total        int64            `json:"total_ns"`
	Layers       map[string]int64 `json:"layers_ns"`
	Unattributed int64            `json:"unattributed_ns"`
}

func buildLedger(spans []span) (ledger, error) {
	if len(spans) == 0 || spans[0].Parent != -1 {
		return ledger{}, fmt.Errorf("ledger: no root span")
	}
	self, err := selfTimes(spans)
	if err != nil {
		return ledger{}, err
	}
	l := ledger{Total: spans[0].End - spans[0].Start, Layers: map[string]int64{}, Unattributed: self[0]}
	for i := 1; i < len(spans); i++ {
		l.Layers[spans[i].layer()] += self[i]
	}
	return l, nil
}

// check verifies the ledger identity: layers plus remainder equal total.
func (l ledger) check() error {
	sum := l.Unattributed
	for _, v := range l.Layers {
		sum += v
	}
	if sum != l.Total {
		return fmt.Errorf("ledger: layers+remainder %d ns != total %d ns", sum, l.Total)
	}
	return nil
}
