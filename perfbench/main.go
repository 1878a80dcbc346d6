// Command perfbench is the windtunnel's command-to-photon benchmark. It
// starts an in-process origin (plus relays where a workload needs
// them), drives two client.Workstations — a commander issuing one
// seeded command every frame and an observer half a period behind —
// over unshaped netsim pipes at the paper's 10 fps, checks every
// reply, and reports the §1.2 loop end to end. With -trace 1 it runs
// an untraced and a traced pass of the same settings and reports the
// per-layer table instead, measured from outside the program: timed
// calls, metered connections, and deltas of public counters.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload direct-play --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The run exits non-zero when
// failed_frac exceeds maxFailedFrac.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// maxFailedFrac is the share of failed samples a run tolerates: none.
// Every workload is built so that no operation fails.
const maxFailedFrac = 0

// procs pins GOMAXPROCS for every run. With two Ps on a shared 2-vCPU
// host the parallel integrator's second worker is often descheduled,
// so a round's integrate time is bimodal (about 1.6 ms or 3.2 ms for
// direct-play) and the median frame time flips between the modes from
// one run to the next. One P makes that work serial and the runs
// comparable on any core count. The server sizes its rake, governor
// and tool workers from GOMAXPROCS, so the server compute and tools
// layers are measured with one worker, not at a multi-core default.
const procs = 1

// setupRuns is how many times the end-to-end run sets up; setup_s is
// the median.
const setupRuns = 7

//go:embed layers.json
var layersJSON []byte

// layerDoc records, per per-layer metric, which end-to-end metric it
// should move and on which workloads it is heavy or light.
type layerDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	Heavy  []string `json:"heavy"`
	Light  []string `json:"light"`
	Note   string   `json:"note,omitempty"`
}

func loadLayerDocs() ([]layerDoc, error) {
	var docs []layerDoc
	err := json.Unmarshal(layersJSON, &docs)
	return docs, err
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies the machine a result was measured on.
type host struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: direct-play, relay-paused or live-tools")
		seed    = flag.Uint64("seed", 1, "seed for rake placement, drag paths, iso levels and steering")
		seconds = flag.Float64("seconds", 20, "measured seconds (paced then unpaced phase)")
		trace   = flag.Int("trace", 0, "1 = run an untraced and a traced pass and report per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the traced run's span file")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	c := config{w: w, seed: *seed, seconds: *seconds, setups: setupRuns, ignoreAt: -1}
	h := hostInfo()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		w.Name, c.seed, c.seconds, *trace, h.Go, h.GOMAXPROCS, h.NProc, h.CPU)
	var (
		res    result
		detail map[string]any
		err    error
	)
	if *trace == 1 {
		res, detail, err = reportLayered(c, *out)
	} else {
		res, detail, err = reportEndToEnd(c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	detail["host"] = h
	detail["workload"] = w.Name
	detail["seed"] = c.seed
	detail["why"] = w.Why
	d, _ := json.Marshal(detail)
	fmt.Printf("detail: %s\n", d)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func metricMap(ms []metric) map[string]metric {
	m := make(map[string]metric, len(ms))
	for _, x := range ms {
		m[x.Name] = x
	}
	return m
}

func reportEndToEnd(c config) (result, map[string]any, error) {
	e, err := runEndToEnd(c)
	if err != nil {
		return result{}, nil, err
	}
	for _, m := range e.metrics {
		note := ""
		if t, ok := e.tails[m.Name]; ok {
			note = fmt.Sprintf("  (%s of %d samples, %d beyond; printed, not gated)", t.Percentile, t.Samples, t.Beyond)
		}
		fmt.Printf("%-24s %12.4f %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	fmt.Printf("%-24s %12.4f ratio  (%d failed of %d attempted; bound %g)\n",
		"failed_frac", e.out.frac(), e.out.failed, e.out.attempted, float64(maxFailedFrac))
	for _, f := range e.out.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	fmt.Printf("paced frame times scaled to a reference kernel time of %.0f us (median measured %.1f us; unscaled cmd_to_photon_p50 %.4f ms)\n",
		us(probeRef), e.probeUs, e.rawCtp)
	fmt.Printf("table 1 (computed from bytes_per_frame, not measured on a shaped link): %.2f ms/frame at 1 MB/s, %.2f ms/frame at 13 MB/s\n",
		e.table1["ms_per_frame_at_1MBps"], e.table1["ms_per_frame_at_13MBps"])
	detail := map[string]any{
		"failed_frac": e.out.frac(), "failures": e.out.failures, "tails": e.tails,
		"table1_computed": e.table1, "setup_runs_s": e.setupAll,
		"frame_p50_by_workstation_ms": e.frameWS,
		"probe_median_us":             e.probeUs, "probe_ref_us": us(probeRef), "cmd_to_photon_p50_unscaled_ms": e.rawCtp,
	}
	gated := metricMap(e.metrics)
	for name := range printedOnly {
		delete(gated, name)
	}
	return result{
		Correct: e.out.frac() <= maxFailedFrac, Attempted: e.out.attempted, Failed: e.out.failed,
		Metrics: gated,
	}, detail, nil
}

func reportLayered(c config, dir string) (result, map[string]any, error) {
	docs, err := loadLayerDocs()
	if err != nil {
		return result{}, nil, fmt.Errorf("layers.json: %w", err)
	}
	l, err := runLayered(c)
	if err != nil {
		return result{}, nil, err
	}
	got := metricMap(l.metrics)
	fmt.Printf("%-36s %14s %-6s  %s\n", "per-layer metric", "value", "unit", "should move (heavy on / light on)")
	var notes []string
	for _, d := range docs {
		m := got[d.Name]
		mark := ""
		if d.Note != "" {
			if !slices.Contains(notes, d.Note) {
				notes = append(notes, d.Note)
			}
			mark = fmt.Sprintf(" [%d]", slices.Index(notes, d.Note)+1)
		}
		fmt.Printf("%-36s %14.4f %-6s  %s (%s / %s)%s\n", d.Name, m.Value, m.Unit,
			strings.Join(d.Moves, ", "), strings.Join(d.Heavy, ", "), strings.Join(d.Light, ", "), mark)
	}
	for k, n := range notes {
		fmt.Printf("[%d] %s\n", k+1, n)
	}
	fmt.Printf("self time of the median command (traced cmd_to_photon %.3f ms):\n", l.medianCmd)
	var sum time.Duration
	for _, k := range layerOrder {
		if _, ok := l.median[k]; !ok {
			continue
		}
		sum += l.median[k]
		fmt.Printf("  %-18s %10.1f us  %5.1f%%\n", k, us(l.median[k]), 100*ratio(us(l.median[k]), 1e3*l.medianCmd))
	}
	fmt.Printf("  %-18s %10.1f us  (unattributed in %s: %.1f%%)\n", "sum", us(sum),
		strings.Join(unattributedLayers, " + "), 100*unattributedFrac(l.median, l.medianCmd))
	path, err := writeTrace(dir, c.w.Name, c.seed, l.spans)
	if err != nil {
		return result{}, nil, fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans), path)
	for _, f := range l.out.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	median := make(map[string]float64, len(l.median))
	for k, v := range l.median {
		median[k] = us(v)
	}
	detail := map[string]any{
		"failed_frac": l.out.frac(), "failures": l.out.failures,
		"median_cmd_to_photon_ms": l.medianCmd, "median_self_us": median,
	}
	return result{
		Correct: l.out.frac() <= maxFailedFrac, Attempted: l.out.attempted, Failed: l.out.failed,
		Metrics: metricMap(l.metrics),
	}, detail, nil
}
