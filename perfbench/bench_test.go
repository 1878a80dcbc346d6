package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shortSeconds keeps each test pass to a few paced frames per
// workstation plus a short unpaced burst.
const shortSeconds = 1.2

func TestWorkloadsShortPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e, err := runEndToEnd(config{w: w, seed: 7, seconds: shortSeconds, setups: 2, ignoreAt: -1})
			if err != nil {
				t.Fatal(err)
			}
			if e.out.failed != 0 {
				t.Fatalf("failed %d of %d: %v", e.out.failed, e.out.attempted, e.out.failures)
			}
			if e.out.own == 0 || e.out.observer == 0 {
				t.Errorf("checks fired: own %d, observer %d", e.out.own, e.out.observer)
			}
			if w.Live && e.out.steer != 1 {
				t.Errorf("steering audits %d, want 1", e.out.steer)
			}
			for _, m := range e.metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// TestIgnoredCommandFails sends one command the server drops on
// purpose — a grab with GrabNone before a move, or a negative iso level
// — and requires the checks to count it as failed, not as a fast
// sample.
func TestIgnoredCommandFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e, err := runEndToEnd(config{w: w, seed: 3, seconds: shortSeconds, setups: 1, ignoreAt: 4})
			if err != nil {
				t.Fatal(err)
			}
			if e.out.frac() <= 0 {
				t.Fatalf("ignored command not counted: failed %d of %d", e.out.failed, e.out.attempted)
			}
			if !strings.Contains(strings.Join(e.out.failures, "\n"), "own reply does not show command 4") {
				t.Errorf("failures %v do not name the ignored command", e.out.failures)
			}
			// The commander and, at most, the observer's next frame miss
			// it; every later command shows up again.
			if e.out.failed > 2 {
				t.Errorf("failed %d samples, want the ignored command only: %v", e.out.failed, e.out.failures)
			}
		})
	}
}

func TestTracedPassAttributesEveryLayer(t *testing.T) {
	l, err := runLayered(config{w: workloadByName("relay-paused"), seed: 5, seconds: 2 * shortSeconds, ignoreAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if l.out.failed != 0 {
		t.Fatalf("failures: %v", l.out.failures)
	}
	for _, layer := range []string{"client", "link", "relay.leaf", "link.hops", "relay.mid", "dlib", "server.other", "render"} {
		if l.median[layer] <= 0 {
			t.Errorf("median command has no %s self time: %v", layer, l.median)
		}
	}
	// Full traced runs leave 1-5% here. This short pass judges a single
	// median command, whose driver lag alone can pass 5%; a layer whose
	// span went missing would leave far more than 10%.
	if f := unattributedFrac(l.median, l.medianCmd); f > 0.10 {
		t.Errorf("%.3f of cmd_to_photon left in %v: %v", f, unattributedLayers, l.median)
	}
	docs, err := loadLayerDocs()
	if err != nil {
		t.Fatal(err)
	}
	got := metricMap(l.metrics)
	if len(got) != len(docs) {
		t.Errorf("%d per-layer metrics measured, %d documented", len(got), len(docs))
	}
	for _, d := range docs {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("layers.json %s [%s] vs measured %+v", d.Name, d.Unit, m)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for k, w := range b.Workloads {
		if w.Name != workloads[k].Name || w.Why != workloads[k].Why {
			t.Errorf("workload %d: %q %q vs code %q %q", k, w.Name, w.Why, workloads[k].Name, workloads[k].Why)
		}
	}
	// Units of the end-to-end metrics as the run reports them.
	e := &endToEnd{}
	e.metrics = endToEndMetrics(0, 0, 0, 0, 0, 0, 0, 0)
	got := metricMap(e.metrics)
	for name := range printedOnly {
		delete(got, name)
	}
	if len(got) != len(b.EndToEnd) {
		t.Errorf("%d end-to-end metrics reported, %d listed", len(got), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("end_to_end %s [%s] vs reported %+v", m.Name, m.Unit, g)
		}
	}
	docs, err := loadLayerDocs()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(b.PerLayer) {
		t.Fatalf("%d per-layer metrics listed, layers.json has %d", len(b.PerLayer), len(docs))
	}
	for k, m := range b.PerLayer {
		d := docs[k]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v vs layers.json %+v", k, m, d)
		}
	}
}

func TestFramerCountsFrames(t *testing.T) {
	// Two frames with bodies of 3 and 0 bytes, fed one byte at a time.
	stream := []byte{3, 0, 0, 0, 'a', 'b', 'c', 0, 0, 0, 0}
	var f framer
	done := 0
	for _, c := range stream {
		done += f.feed([]byte{c})
	}
	if done != 2 || !f.atBoundary() {
		t.Fatalf("done %d boundary %v", done, f.atBoundary())
	}
	if n := new(framer).feed(stream); n != 2 {
		t.Fatalf("whole stream: %d frames", n)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "cmd", Parent: -1, Start: 0, End: 100},
		{Name: "ws.netstep", Parent: 0, Start: 10, End: 60},
		{Name: "ws.conn", Parent: 1, Start: 20, End: 50},
		{Name: "origin.service", Parent: 2, Start: 25, End: 45},
		{Name: "ws.render", Parent: 0, Start: 60, End: 100},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"harness": 10, "client": 20, "link": 10, "dlib": 20, "render": 40}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self %v, want %v", k, got[k], v)
		}
	}
}

func TestAtRefScalesByProbe(t *testing.T) {
	r := frameRec{probe: 2 * probeRef}
	if got := r.atRef(6); got != 3 {
		t.Fatalf("atRef(6) with the kernel at twice probeRef = %v, want 3", got)
	}
	if d := probe(0); d <= 0 {
		t.Fatalf("probe took %v", d)
	}
}
