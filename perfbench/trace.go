package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Spans of one command share Cmd; Parent
// indexes the enclosing span in the same command (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Cmd    int    `json:"cmd"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerOf maps span names to the layer their self time is charged to.
var layerOf = map[string]string{
	"cmd":              "harness",
	"ws.queue":         "harness",
	"ws.netstep":       "client",
	"ws.conn":          "link",
	"relay.leaf":       "relay.leaf",
	"hop.leaf_mid":     "link.hops",
	"relay.mid":        "relay.mid",
	"hop.mid_origin":   "link.hops",
	"origin.service":   "dlib",
	"origin.handler":   "server.other",
	"server.load":      "server.load",
	"server.integrate": "server.integrate",
	"server.encode":    "server.encode",
	"ws.render":        "render",
}

// layerOrder is the display order of the self-time table.
var layerOrder = []string{
	"harness", "client", "link", "relay.leaf", "link.hops", "relay.mid",
	"dlib", "server.other", "server.load", "server.integrate", "server.encode", "render",
}

// unattributedLayers are the catch-alls: driver time around the frame
// calls, and origin handler time outside the load, integrate and
// encode stages.
var unattributedLayers = []string{"harness", "server.other"}

// unattributedFrac is the share of a command's cmd_to_photon (in ms)
// that its self times leave in the catch-all layers.
func unattributedFrac(self map[string]time.Duration, cmdMs float64) float64 {
	var t time.Duration
	for _, k := range unattributedLayers {
		t += self[k]
	}
	return ratio(ms(t), cmdMs)
}

// commandSpans builds the span tree of one commander frame.
func commandSpans(rec frameRec, t0 time.Time) []span {
	var out []span
	add := func(name string, parent int, a, b time.Time) int {
		if a.IsZero() || b.IsZero() {
			return parent
		}
		out = append(out, span{Name: name, Cmd: rec.cmd, Parent: parent,
			Start: int64(a.Sub(t0)), End: int64(b.Sub(t0))})
		return len(out) - 1
	}
	root := add("cmd", -1, rec.due, rec.renEnd)
	add("ws.queue", root, rec.due, rec.start)
	ns := add("ws.netstep", root, rec.start, rec.netEnd)
	tr := rec.tr
	p := add("ws.conn", ns, tr.ws.Start, tr.ws.End)
	p = add("relay.leaf", p, tr.leafSrv.Start, tr.leafSrv.End)
	p = add("hop.leaf_mid", p, tr.leafUp.Start, tr.leafUp.End)
	p = add("relay.mid", p, tr.midSrv.Start, tr.midSrv.End)
	p = add("hop.mid_origin", p, tr.midUp.Start, tr.midUp.End)
	p = add("origin.service", p, tr.originSrv.Start, tr.originSrv.End)
	if tr.handlerOK && !tr.originSrv.End.IsZero() {
		// Only durations are known below the service span: place the
		// handler at its end and the round stages in order from the
		// handler's start.
		hs := tr.originSrv.End.Add(-tr.handler)
		h := add("origin.handler", p, hs, tr.originSrv.End)
		at := hs
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"server.load", tr.load}, {"server.integrate", tr.integ}, {"server.encode", tr.encode}} {
			if st.d > 0 {
				add(st.name, h, at, at.Add(st.d))
				at = at.Add(st.d)
			}
		}
	}
	add("ws.render", root, rec.renStart, rec.renEnd)
	return out
}

// selfTimes charges each span's self time — its duration minus the
// part of it its children cover — to its layer. Spans must be in
// parent-before-child order.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		out[layerOf[s.Name]] += time.Duration(s.End - s.Start - covered(iv))
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for k, x := range iv {
		if k == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeTrace writes the traced run's spans as JSON.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
