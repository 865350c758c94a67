// Command bench is this repository's benchmark: seven named workloads
// over the simulator (experiment.Run, sizing.Sweep, topology.Run) and
// the admission daemon (cmd/qosd), end-to-end metrics with regression
// bounds, and a per-layer ledger measured from outside by timing calls
// into each package's public functions. BENCHMARK.json at the
// repository root fixes the workload and metric names, units,
// directions and bounds; this program reads them from there.
//
// One measured run of one workload (the acceptance driver's contract):
//
//	go run ./bench --workload link-fifo --seed 1 --seconds 8 --trace 0
//
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as one JSON object on the last line of standard output.
//
// The whole suite, for people:
//
//	go run ./bench -seed 1                # every workload: R runs + one traced pass
//	go run ./bench -only adm-single       # one workload
//	go run ./bench -selfcheck             # two sets back to back, judged against the bounds
//
// See bench/README.md for the workloads, the metric interactions and
// the ledger formula.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	// minRepeats is the fewest timed calls a run's figure may rest on.
	minRepeats = 3
	// minHorizon is the simulated horizon of the construction-only
	// probes (a run that builds everything and simulates 1 ns).
	minHorizon = 1e-9
	// outDir receives span dumps and the suite's JSON; buildDir the
	// qosd binary and its address files. Both are relative to the
	// checkout root the command runs from, and both are git-ignored.
	outDir   = "bench/out"
	buildDir = ".bench_build"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	rec      *recorder // nil unless traced
	// speedup is set by net-sharded's check: single-shard over sharded
	// wall time with every processor on.
	speedup float64
}

// outcome is what one run produced: every metric it measured by name,
// the operations it attempted and how many gave a wrong answer.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	fingerprint       string
	// counts and ledger feed ledger.explained_frac on traced sim runs.
	counts simCounts
	ledger ledgerKeys
}

var workloads = map[string]func(*runCtx) (outcome, error){
	"link-fifo":   linkFifo,
	"link-wfq-1k": linkWfq1k,
	"tcp-cell":    tcpCell,
	"net-open":    netOpen,
	"net-sharded": netSharded,
	"adm-single":  admSingle,
	"adm-batch":   admBatch,
}

// metricDef and benchSpec mirror BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which bench does not implement", w.Name)
		}
	}
	return &s, nil
}

// runOne executes one run of one workload. A traced run also executes
// the per-layer probes and derives the ledger.
func runOne(name string, seed int64, seconds float64, traced bool) (outcome, error) {
	fn := workloads[name]
	if fn == nil {
		return outcome{}, fmt.Errorf("unknown workload %q", name)
	}
	rc := &runCtx{workload: name, seed: seed, seconds: seconds, traced: traced}
	if traced {
		rc.rec = newRecorder()
	}
	out, err := fn(rc)
	if err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	out.metrics["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	if traced {
		sp := rc.rec.begin("probes", 0, 0)
		probes, err := runProbes(seed)
		rc.rec.end(sp)
		if err != nil {
			return out, fmt.Errorf("probes: %w", err)
		}
		for k, v := range probes {
			out.metrics[k] = v
		}
		out.metrics["ledger.explained_frac"] = explainedFrac(out.counts, out.ledger, probes, out.metrics["run_s"])
		if err := rc.rec.write(outDir, name, seed); err != nil {
			return out, err
		}
	}
	return out, nil
}

// resultLine is the acceptance contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project keeps exactly the metrics defs lists; one the run did not
// measure is an error unless the list is per-layer, where a layer the
// workload does not touch reads 0.
func project(out outcome, defs []metricDef, zeroMissing bool) (map[string]metricValue, error) {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return m, nil
}

// driverRun is the acceptance driver's entry point.
func driverRun(spec *benchSpec, name string, seed int64, seconds float64, traced bool) int {
	out, err := runOne(name, seed, seconds, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defs, zeroMissing := spec.EndToEnd, false
	if traced {
		defs, zeroMissing = spec.PerLayer, true
	}
	m, err := project(out, defs, zeroMissing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if out.failed != 0 {
		return 1
	}
	return 0
}

// hostRecord states where the numbers were taken.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func host() hostRecord {
	h := hostRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// workloadReport is one workload's entry in the suite's JSON.
type workloadReport struct {
	Why         string                 `json:"why"`
	Fingerprint string                 `json:"fingerprint,omitempty"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Runs        int                    `json:"runs"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	Spread      map[string]float64     `json:"spread"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

type suiteReport struct {
	Host      hostRecord                `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Repeats   int                       `json:"repeats"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// untracedExtras are the issue's end-to-end metrics that BENCHMARK.json
// lists per-layer because they cannot be gated (see bench/README.md).
// They are measured with tracing off all the same, so the suite prints
// them beside the gated ones.
var untracedExtras = []string{"failed_frac", "over_limit_frac", "latency_p50_us", "latency_p99_us"}

func unitOf(spec *benchSpec, name string) string {
	for _, d := range spec.PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// set is R runs of every selected workload: the values of each
// end-to-end metric per workload, in run order.
type set map[string]map[string][]float64

// runSet makes repeats untraced runs of each workload, run r with seed
// seed+r as the acceptance driver varies it, and prints every metric's
// median with its unit and sample count.
func runSet(spec *benchSpec, names []string, seed int64, seconds float64, repeats int, rep *suiteReport) (set, int, error) {
	values, failed := set{}, 0
	for _, name := range names {
		values[name] = map[string][]float64{}
		wr := rep.Workloads[name]
		for r := 0; r < repeats; r++ {
			out, err := runOne(name, seed+int64(r), seconds, false)
			if err != nil {
				return nil, failed, err
			}
			for _, d := range spec.EndToEnd {
				v, ok := out.metrics[d.Name]
				if !ok {
					return nil, failed, fmt.Errorf("%s: metric %s was not measured", name, d.Name)
				}
				values[name][d.Name] = append(values[name][d.Name], v)
			}
			for _, extra := range untracedExtras {
				if v, ok := out.metrics[extra]; ok {
					values[name][extra] = append(values[name][extra], v)
				}
			}
			wr.Attempted += out.attempted
			wr.Failed += out.failed
			wr.Fingerprint = out.fingerprint
			wr.Notes = out.notes
			failed += out.failed
		}
		wr.Runs, wr.EndToEnd, wr.Spread = repeats, map[string]metricValue{}, map[string]float64{}
		fmt.Printf("%s  (%d runs of %gs, seeds %d..%d, fingerprint %s)\n", name, repeats, seconds, seed, seed+int64(repeats)-1, wr.Fingerprint)
		for _, d := range spec.EndToEnd {
			v := values[name][d.Name]
			wr.EndToEnd[d.Name] = metricValue{Value: median(v), Unit: d.Unit}
			wr.Spread[d.Name] = spread(v)
			fmt.Printf("  %-22s %14.6g %-6s n=%d spread=%.4f bound=%.2f\n", d.Name, median(v), d.Unit, len(v), spread(v), d.Bound)
		}
		for _, extra := range untracedExtras {
			if v := values[name][extra]; len(v) > 0 {
				fmt.Printf("  %-22s %14.6g %-6s n=%d spread=%.4f (not gated)\n", extra, median(v), unitOf(spec, extra), len(v), spread(v))
			}
		}
		for _, n := range wr.Notes {
			fmt.Println("  #", n)
		}
		rep.Workloads[name] = wr
	}
	return values, failed, nil
}

// tracedPass runs each workload once more with tracing on and prints
// the per-layer metrics.
func tracedPass(spec *benchSpec, names []string, seed int64, seconds float64, rep *suiteReport) (int, error) {
	failed := 0
	for _, name := range names {
		out, err := runOne(name, seed, seconds, true)
		if err != nil {
			return failed, err
		}
		failed += out.failed
		m, err := project(out, spec.PerLayer, true)
		if err != nil {
			return failed, err
		}
		wr := rep.Workloads[name]
		wr.PerLayer = m
		rep.Workloads[name] = wr
		fmt.Printf("%s  per-layer (traced pass, spans in %s/trace-%s.json)\n", name, outDir, name)
		for _, d := range spec.PerLayer {
			fmt.Printf("  %-36s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
		}
		for _, n := range out.notes {
			fmt.Println("  #", n)
		}
	}
	return failed, nil
}

// selfcheck compares two sets of the same commit, metric by metric,
// against the bounds; it is how the bounds are calibrated.
func selfcheck(spec *benchSpec, names []string, a, b set) bool {
	ok := true
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "bound", "spread", "verdict")
	for _, name := range names {
		for _, d := range spec.EndToEnd {
			ma, mb := median(a[name][d.Name]), median(b[name][d.Name])
			diff := worseBy(ma, mb, d.Better)
			sp := max(spread(a[name][d.Name]), spread(b[name][d.Name]))
			verdict := "ok"
			switch {
			case diff > d.Bound || -diff > d.Bound:
				verdict, ok = "DISAGREE", false
			case sp > d.Bound:
				// The run-to-run spread is wider than the bound: a
				// change of that size could not be told from noise.
				verdict = "unresolved"
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%%  %s\n", name, d.Name, ma, mb, diff*100, d.Bound*100, sp*100, verdict)
		}
	}
	return ok
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "workload seed; every input derives from it")
		only      = flag.String("only", "", "comma-separated workloads to run (default: all in BENCHMARK.json)")
		repeats   = flag.Int("repeats", 3, "runs per workload whose median is reported (seed, seed+1, ...)")
		outPath   = flag.String("out", filepath.Join(outDir, "latest.json"), "where the suite writes its JSON")
		check     = flag.Bool("selfcheck", false, "run two sets back to back and judge their agreement against the bounds")
		workload  = flag.String("workload", "", "acceptance-driver mode: make one run of this workload and print the result line")
		seconds   = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
		traceFlag = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload != "" {
		os.Exit(driverRun(spec, *workload, *seed, *seconds, *traceFlag != 0))
	}

	var names []string
	why := map[string]string{}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		why[w.Name] = w.Why
	}
	if *only != "" {
		names = strings.Split(*only, ",")
		for _, n := range names {
			if workloads[n] == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q (BENCHMARK.json lists them)\n", n)
				os.Exit(2)
			}
		}
	}
	if *repeats < minRepeats {
		fmt.Fprintf(os.Stderr, "bench: -repeats must be at least %d\n", minRepeats)
		os.Exit(2)
	}
	rep := &suiteReport{Host: host(), Seed: *seed, Seconds: *seconds, Repeats: *repeats, Workloads: map[string]workloadReport{}}
	for _, n := range names {
		rep.Workloads[n] = workloadReport{Why: why[n]}
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.CPUModel, rep.Host.Commit)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	first, failed, err := runSet(spec, names, *seed, *seconds, *repeats, rep)
	if err != nil {
		fail(err)
	}
	agree := true
	if *check {
		second, f, err := runSet(spec, names, *seed, *seconds, *repeats, &suiteReport{Workloads: map[string]workloadReport{}})
		if err != nil {
			fail(err)
		}
		failed += f
		agree = selfcheck(spec, names, first, second)
	} else {
		f, err := tracedPass(spec, names, *seed, *seconds, rep)
		if err != nil {
			fail(err)
		}
		failed += f
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
		fail(err)
	}
	if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println("wrote", *outPath)
	if failed != 0 || !agree {
		fmt.Fprintf(os.Stderr, "bench: %d failed checks, sets agree: %v\n", failed, agree)
		os.Exit(1)
	}
}
