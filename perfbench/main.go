// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks the program's outputs, and prints
// every metric by name and unit; the last line of standard output is the
// JSON result:
//
//	perfbench --workload fig10-digits --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured with tracing off. With --trace 1 a separate traced run times the
// calls into each layer's public functions from outside the program and
// reports the per-layer metrics, including the tracing overhead against an
// untraced pass of the same work. --out appends the full stamped record
// (host, commit, failures by reason, phase details) to a JSONL file;
//
//	perfbench compare old.jsonl new.jsonl
//
// compares two such files metric by metric against the bounds in
// BENCHMARK.json, and refuses when their host stamps differ. See README.md
// for the workloads and the metric → layer → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// setupReps is how many times each workload sets up per run; setup_s
	// is the median, so one slow set-up does not move it.
	setupReps = 3
	// specFile defines the metrics; the benchmark runs from the
	// repository root.
	specFile = "BENCHMARK.json"
	// spanDir receives the traced run's spans, beside the build output.
	spanDir = ".bench_build/spans"
)

// workloads maps each workload name to its runner. A runner returns an
// error only when it cannot run at all; wrong outputs are failures.
var workloads = map[string]func(*run) error{
	"fig10-digits":    runFig10,
	"classify-single": func(r *run) error { return runClassify(r, singleSpec) },
	"classify-bulk":   func(r *run) error { return runClassify(r, bulkSpec) },
	"fleet-dim":       runFleet,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out appends: the result with its host stamp and the
// detail behind it.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Stamp    stamp              `json:"stamp"`
	Failures map[string]int64   `json:"failures"`
	Details  map[string]float64 `json:"details"`
	Result   result             `json:"result"`
}

// run is the state one workload run fills in.
type run struct {
	seed    int64
	seconds float64
	tr      *tracer // nil on the untraced run

	attempted atomic.Int64
	mu        sync.Mutex
	fails     map[string]int64
	wrong     bool // an output check failed
	metrics   map[string]metric
	details   map[string]float64
	rss       *rssSampler // started where the measured part begins
}

// op counts n attempted operations.
func (r *run) op(n int) { r.attempted.Add(int64(n)) }

// fail counts one failed operation under reason.
func (r *run) fail(reason string) {
	r.mu.Lock()
	r.fails[reason]++
	r.mu.Unlock()
}

// check counts one output check as an attempted operation and, when err is
// set, as a failure under check.<name>.
func (r *run) check(name string, err error) {
	r.op(1)
	if err != nil {
		fmt.Printf("check %s FAILED: %v\n", name, err)
		r.fail("check." + name)
		r.mu.Lock()
		r.wrong = true
		r.mu.Unlock()
	}
}

// wrongOutput records a reply that disagrees with the reference.
func (r *run) wrongOutput() {
	r.fail("wrong_output")
	r.mu.Lock()
	r.wrong = true
	r.mu.Unlock()
}

func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// detail records a figure that is reported but not a BENCHMARK.json metric.
func (r *run) detail(name string, v float64) { r.details[name] = v }

type spec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "record" {
		if err := recordTable(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench record:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", "", "append the stamped record to this JSONL file")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	st := hostStamp()
	fmt.Printf("host: %s | nproc %d | GOMAXPROCS %d | %s | commit %s dirty=%s\n",
		st.CPU, st.NProc, st.GoMaxProcs, st.GoVersion, st.Commit, st.Dirty)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *trace)

	r := &run{
		seed: *seed, seconds: float64(*seconds),
		fails: map[string]int64{}, metrics: map[string]metric{}, details: map[string]float64{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	clk := startHostClock()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	wall, unstolen := clk.stop()
	r.detail("host.steal_share", 1-unstolen/wall)

	want := sp.EndToEnd
	if r.tr != nil {
		want = sp.PerLayer
		if err := r.tr.write(fmt.Sprintf("%s/%s-seed%d.jsonl", spanDir, *name, *seed)); err != nil {
			return err
		}
		r.tr.printLayers(os.Stdout)
	} else if r.rss != nil {
		r.put("rss_mb", "MB", r.rss.meanMB())
	}
	r.detail("peak_rss_mb", peakRSSMB())
	res := result{Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && r.tr != nil:
			// A layer this workload never calls: nothing to time.
			got = metric{0, m.Unit}
		case !ok:
			return fmt.Errorf("%s did not measure %s", *name, m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			// No operation succeeded to measure it: every reply was wrong,
			// say. Count that rather than print a number JSON cannot hold.
			r.check("metric."+m.Name, errors.New("no successful operation to measure"))
			got.Value = 0
		}
		res.Metrics[m.Name] = got
	}
	for k, v := range r.details {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.details, k)
		}
	}
	res.Attempted = r.attempted.Load()
	for _, n := range r.fails {
		res.Failed += n
	}
	res.Correct = !r.wrong
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}

	printReport(os.Stdout, r, res)
	if *out != "" {
		rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Stamp: st, Failures: r.fails, Details: r.details, Result: res}
		if err := appendJSONL(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printReport(w io.Writer, r *run, res result) {
	for _, k := range sortedKeys(r.details) {
		fmt.Fprintf(w, "  %-28s %.6g\n", k, r.details[k])
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d (fail_ratio %.4g) correct %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	for _, k := range sortedKeys(r.fails) {
		fmt.Fprintf(w, "  failures %-26s %d\n", k, r.fails[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendJSONL(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
