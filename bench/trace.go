package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one interval at a layer boundary.  Spans of one request share
// Request; Parent is the index (in the trace file's span list) of the span
// that caused this one, -1 for a request's root.
//
// The program is not instrumented, so a child span is measured by replaying
// its parent's exact inputs through the child layer's public entry point
// right after the parent call.  Durations are therefore measured, while a
// child's position is assigned: it is laid inside its parent's interval,
// sequential children one after another and parallel children (shard lanes)
// from the same start.
type span struct {
	Request int                `json:"id"`
	Index   int                `json:"span"`
	Name    string             `json:"name"`
	Parent  int                `json:"parent"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends.  A nil recorder
// records nothing, which is the no-op side of the tracing-overhead
// measurement.
type recorder struct {
	spans []span
}

// add appends a span lasting durNs from startNs under parent and returns its
// index; on a nil recorder it returns -1.
func (r *recorder) add(request int, name string, parent int, startNs, durNs int64, counts map[string]float64) int {
	if r == nil {
		return -1
	}
	if durNs < 0 {
		durNs = 0
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		Request: request, Index: idx, Name: name, Parent: parent,
		StartNs: startNs, EndNs: startNs + durNs, Counts: counts,
	})
	return idx
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.  Children may overlap one another
// (parallel lanes) and may stick out of the parent (a replayed child that
// ran slower than it did inside the parent); only the union of their
// intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.Index]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Tree is the declared span tree: each name with its parent's.
	Tree  map[string]string `json:"tree"`
	Spans []span            `json:"spans"`
	// SelfNs[i] is the self time of Spans[i].
	SelfNs []int64 `json:"self_ns"`
}

// declaredTree is the span tree of one replayed request.
var declaredTree = map[string]string{
	"request":            "",
	"server.parse":       "request",
	"root.key":           "request",
	"root.session_run":   "request",
	"core.run_ops":       "root.session_run",
	"core.shard_run.<i>": "core.run_ops",
	"analytics.merge":    "core.run_ops",
	"server.encode":      "request",
	"server.handler":     "request",
	"http.loopback":      "request",
}

// writeTrace writes the recorded spans with their self times.
func writeTrace(path, workload string, seed int64, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Seed: seed, Tree: declaredTree,
		Spans: r.spans, SelfNs: selfTimes(r.spans),
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
