package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Spans of one round share the round id; Parent is
// the span that caused this one (-1 for a round's root op).
//
// The root and the children a client can see are really part of the op. The
// layers below are replayed after the op, on the same operands, through one
// exported entry point each (Replay is set). A replayed span may stand for
// several identical calls of its parent: Scale is how many such calls one
// call of the parent issues, divided by how many of them run side by side,
// so Duration·Scale is the part of the parent's wall time this span covers.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Round   int     `json:"round"`
	Name    string  `json:"name"` // "<layer>.<call>"
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	Scale   float64 `json:"scale"`
	Replay  bool    `json:"replay,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNS - s.StartNS) }

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(round, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: round, Name: name, StartNS: now, Scale: 1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// replay times f as a replayed child of parent and returns the new span's
// id for the next layer down to hang from.
func (t *tracer) replay(round, parent int, name string, scale float64, f func()) int {
	if t == nil {
		f()
		return -1
	}
	id := t.start(round, parent, name)
	f()
	t.end(id)
	t.mu.Lock()
	t.spans[id].Replay = true
	t.spans[id].Scale = scale
	t.mu.Unlock()
	return id
}

// selfShares is each layer's self time as a share of the root spans' time.
// A span's self time is its duration minus what its children cover
// (Duration·Scale each); it counts once for every call the span stands for,
// which is the product of the scales on its path to the root. Replayed
// children can cover more than their parent measured (a replay runs with
// colder caches than the call it stands for, and a scale assumes the threads
// divide the work evenly): the parent's self time is then 0 and the children
// share the parent's duration in proportion, so the layers of a round always
// sum to its root. Only rounds whose root has a replayed descendant are
// counted, so a round traced at the client only (most wire requests) does
// not dilute the shares of the rounds that were taken apart.
func selfShares(spans []span) map[string]float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var hasReplay func(i int) bool
	hasReplay = func(i int) bool {
		for _, c := range children[i] {
			if spans[c].Replay || hasReplay(c) {
				return true
			}
		}
		return false
	}
	self := make(map[string]float64)
	var walk func(i int, weight float64)
	walk = func(i int, weight float64) {
		dur, covered := spans[i].dur(), 0.0
		for _, c := range children[i] {
			covered += spans[c].dur() * spans[c].Scale
		}
		fit := 1.0
		if covered > dur {
			fit = dur / covered
		} else {
			self[spans[i].layer()] += (dur - covered) * weight
		}
		for _, c := range children[i] {
			walk(c, weight*spans[c].Scale*fit)
		}
	}
	total := 0.0
	for i, s := range spans {
		if s.Parent < 0 && hasReplay(i) {
			total += s.dur()
			walk(i, 1)
		}
	}
	shares := make(map[string]float64, len(self))
	if total > 0 {
		for l, v := range self {
			shares[l] = v / total
		}
	}
	return shares
}

// traceFile is what fmmbench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
