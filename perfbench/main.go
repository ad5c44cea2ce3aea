// Command perfbench is the repository benchmark: it runs one workload
// against the in-process system for a fixed time, checks every decrypted
// output, and prints every metric by name with its unit. The last line of
// standard output is the JSON result; everything before it is the
// human-readable report (host stamp, sample counts, deviation histogram,
// and in the traced run the span tree and explained-time table).
//
//	go build -o perfbench . && ./perfbench -workload pipeline_deep -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 reports the
// per-layer metrics: the run is split into an untraced and a traced half
// (their difference is the tracing overhead), followed by a kernel
// calibration on the run's own keys and a layer probe. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"athena/internal/core"
)

// setupReps is how many times each run builds its workload from scratch;
// setup_s is the median, so one slow build does not move it.
const setupReps = 5

// maxConns is the load budget: client connections open at once.
const maxConns = 2

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// workload is one traffic mix. setup builds everything the measured
// phase needs and records its own samples into the shared run; measure
// drives traffic for d; layers adds the workload's per-layer counters,
// read only after the system is quiescent; close is idempotent.
type workload interface {
	setup() error
	measure(d time.Duration, tr *tracer) (*phase, error)
	layers(m metricSet) error
	close()
}

// run is the state shared by a workload's setups and phases.
type run struct {
	o      options
	p      core.Params
	tmp    string
	gate   *connGate
	ready  []float64 // session-ready samples, ms
	keygen []float64 // client keygen samples, ms
	blobN  int       // evaluation-key bundle size, bytes
}

func newWorkload(r *run) (workload, error) {
	switch r.o.workload {
	case "pipeline_deep":
		return &pipeline{r: r}, nil
	case "session_churn":
		return &churn{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pipeline_deep or session_churn)", r.o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "pipeline_deep or session_churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: inputs, arrivals and identities derive from it")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for temporary stores and span files")
	flag.Parse()
	o.trace = trace == 1
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	runtime.GOMAXPROCS(procsBudget())
	if err := os.MkdirAll(filepath.Join(o.out, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.out, "tmp"), "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &run{o: o, p: core.TestParams(), tmp: tmp, gate: newConnGate(maxConns)}

	var w workload
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		if w, err = newWorkload(r); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer w.close()

	stamp := hostStamp(o)
	dur := time.Duration(o.seconds) * time.Second
	if !o.trace {
		ph, err := w.measure(dur, nil)
		if err != nil {
			return err
		}
		m := endToEnd(r, ph, setup)
		report(stamp, r, ph, m)
		return emit(ph, m)
	}

	// Traced run: untraced half, traced half, then calibration and probe.
	plain, err := w.measure(dur/2, nil)
	if err != nil {
		return err
	}
	tr := newTracer(true)
	traced, err := w.measure(dur-dur/2, tr)
	if err != nil {
		return err
	}
	m := metricSet{}
	if err := w.layers(m); err != nil {
		return err
	}
	// The probe needs the connection budget the workload holds, and fills
	// only the layers the workload did not measure itself.
	w.close()
	probe := metricSet{}
	if err := probeLayers(r, probe); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	for k, v := range probe {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	cal, err := calibrate(r)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	perLayer(r, plain, traced, cal, m)
	spans := tr.snapshot()
	rows := spanTree(spans)
	all := mergePhases(plain, traced)
	report(stamp, r, all, m)
	printTree(os.Stdout, rows)
	printExplained(os.Stdout, cal, m)
	traceFile := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := writeSpans(traceFile, spans); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), traceFile)
	return emit(all, m)
}

// procsBudget is GOMAXPROCS for the run: never more than the host's CPUs.
func procsBudget() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd computes the untraced run's metrics.
func endToEnd(r *run, ph *phase, setup []float64) metricSet {
	m := metricSet{}
	m.set("latency_p50_ms", ph.windowed(0.5), "ms")
	m.set("latency_p95_ms", ph.windowed(0.95), "ms")
	m.set("throughput_rps", float64(ph.ok())/ph.elapsed.Seconds(), "1/s")
	m.set("cpu_ms_per_req", ms(ph.cpu)/float64(max(1, ph.completed)), "ms")
	m.set("success_share", float64(ph.ok())/float64(max(1, ph.attempted)), "ratio")
	m.set("logit_exact_share", ph.chk.exactShare(), "ratio")
	m.set("rss_peak_mb", rssPeakMB(), "MB")
	ready := append(append([]float64(nil), r.ready...), ph.ready...)
	m.set("session_ready_ms_p50", quantile(ready, 0.5), "ms")
	m.set("session_ready_ms_p95", quantile(ready, 0.95), "ms")
	m.set("setup_s", quantile(setup, 0.5), "s")
	return m
}

// emit prints the JSON result as the last line of standard output.
func emit(ph *phase, m metricSet) error {
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{ph.chk.passed() && ph.checkErrs == 0, ph.attempted, ph.attempted - ph.ok(), m}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// report prints the human-readable part of the result.
func report(stamp map[string]any, r *run, ph *phase, m metricSet) {
	b, _ := json.Marshal(stamp)
	fmt.Printf("host: %s\n", b)
	fmt.Printf("samples: latency=%d in %d windows session_ready=%d attempted=%d failed=%d check_errors=%d\n",
		len(ph.lat), windows(ph.d), len(r.ready)+len(ph.ready), ph.attempted, ph.attempted-ph.ok(), ph.checkErrs)
	fmt.Printf("latency_ms quantiles: p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		quantile(ph.lat, 0.1), quantile(ph.lat, 0.25), quantile(ph.lat, 0.5), quantile(ph.lat, 0.75),
		quantile(ph.lat, 0.9), quantile(ph.lat, 0.95), quantile(ph.lat, 0.99), quantile(ph.lat, 1))
	fmt.Printf("error_share: %.6f (failed, refused or outside the noise bound, over attempted)\n",
		float64(ph.attempted-ph.ok())/float64(max(1, ph.attempted)))
	fmt.Printf("logit deviation vs ForwardInt (dev:count): %s; outside bound: %d of %d logits; noise ratio %.3f (limit %d)\n",
		ph.chk.histogram(), ph.chk.outsideCount(), ph.chk.logitCount(), ph.chk.noiseRatio(), noiseVarRatio)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
