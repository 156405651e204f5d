// Command bench is the repository's benchmark: four seeded TreePM workloads
// run through the production pipeline (sim.New + Sim.Step on 8 goroutine
// ranks), seven end-to-end metrics, and a traced pass that times each layer
// from here. See README.md in this directory.
//
//	go run ./bench -workload clustered64 -seed 21 -seconds 10 -trace 0   one run (the driver's form)
//	go run ./bench [-reps 3] [-trace 1]                                 every workload, reps runs each
//	go run ./bench -aa [-reps 10]                                       two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Defaults of one run. runSeconds is BENCHMARK.json's run_seconds.
const (
	runSeconds = 10
	accuracyN  = 256
	devSeed    = 21
)

// scratchRoot holds checkpoints while a run lasts; relative to the working
// directory, which the driver makes the checkout root.
const scratchRoot = ".bench_tmp"

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process; empty = every workload, each run in a child process")
		seed     = flag.Int64("seed", devSeed, "seed of the workload generators")
		seconds  = flag.Float64("seconds", runSeconds, "measured window of one run, in seconds of step wall")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics, tracing on for every other step, layer probes")
		reps     = flag.Int("reps", 0, "runs per workload when no -workload is given (default 3, with -aa 10); run i uses seed+i under -aa")
		aa       = flag.Bool("aa", false, "run two sets back to back and compare them against the bounds")
		strict   = flag.Bool("strict", false, "exit non-zero when a workload-shape assertion does not hold")
		out      = flag.String("out", "", "also write the report as JSON to this file")
		traceOut = flag.String("tracefile", "", "with -workload and -trace 1: write the Chrome trace here")
		setup    = flag.Bool("setuponly", false, "with -workload: set up once, print setup_s and stop (how a run samples set-up time in fresh processes)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	// Ranks are goroutines; more threads than cores only adds scheduler
	// noise, and more than 4 would make hosts of different size incomparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var code int
	var err error
	switch {
	case *name != "" && *setup:
		code, err = setupOnly(*name, *seed)
	case *name != "":
		code, err = single(*name, *seed, *seconds, *trace == 1, *strict, *out, *traceOut)
	case *aa:
		code, err = runAA(*seed, *seconds, orDefault(*reps, 10), *out)
	default:
		code, err = runSuite(*seed, *seconds, *trace == 1, orDefault(*reps, 3), *strict, *out)
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func orDefault(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metricOut is one metric in a report; Value is nil when the layer was idle
// and Null says why.
type metricOut struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	Null  string   `json:"null_reason,omitempty"`
}

// runReport is the full record of one run (-out, and the smoke test).
type runReport struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Steps      int                  `json:"measured_steps"`
	NProc      int                  `json:"nproc"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Metrics    map[string]metricOut `json:"metrics"`
	Attempted  int                  `json:"ops_attempted"`
	Failed     int                  `json:"ops_failed"`
	Failures   []string             `json:"failures,omitempty"`
	Warnings   []string             `json:"shape_warnings,omitempty"`
	Spans      []spanOut            `json:"bench_spans,omitempty"`
}

type spanOut struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns a run's result into its record: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func report(res *runResult, seed int64, trace bool) runReport {
	rep := runReport{
		Workload: res.workload, Seed: seed, Trace: trace, Steps: len(res.walls),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Metrics:   map[string]metricOut{},
		Attempted: res.ops.attempted, Failed: res.ops.failed, Failures: res.ops.reasons,
		Warnings: res.shapeWarn,
	}
	if trace {
		for _, d := range perLayer {
			v, ok := res.layer[d.name]
			switch {
			case !ok:
				rep.Metrics[d.name] = metricOut{Unit: d.unit, Null: "not measured"}
			case v.null != "":
				rep.Metrics[d.name] = metricOut{Unit: d.unit, Null: v.null}
			default:
				val := v.v
				rep.Metrics[d.name] = metricOut{Value: &val, Unit: d.unit}
			}
		}
		for _, s := range res.spans {
			rep.Spans = append(rep.Spans, spanOut{s.name, s.count, s.total.Seconds(), s.self.Seconds()})
		}
		return rep
	}
	for _, d := range endToEnd {
		val := res.e2e[d.name]
		rep.Metrics[d.name] = metricOut{Value: &val, Unit: d.unit}
	}
	return rep
}

// line is the report reduced to the driver's contract. A null metric reads
// 0 there; the lines above it give the reason.
func (rep runReport) line() resultLine {
	l := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]lineMetric{}}
	for name, m := range rep.Metrics {
		var v float64
		if m.Value != nil {
			v = *m.Value
		}
		l.Metrics[name] = lineMetric{Value: v, Unit: m.Unit}
	}
	return l
}

func (rep runReport) print(walls []float64) {
	fmt.Printf("workload %s  seed %d  trace %v  measured steps %d  nproc %d  gomaxprocs %d  ranks %d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Steps, rep.NProc, rep.GoMaxProcs, ranks)
	for _, d := range metricDefs(rep.Trace) {
		m := rep.Metrics[d.name]
		if m.Value == nil {
			fmt.Printf("  %-36s null (%s)\n", d.name, m.Null)
			continue
		}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, *m.Value, m.Unit)
	}
	if q := tailPercentile(len(walls)); !rep.Trace {
		fmt.Printf("  step wall over %d samples: p%g = %.6g s is the highest percentile with at least 10 samples beyond it\n",
			len(walls), q, percentile(walls, q))
	}
	for _, s := range rep.Spans {
		fmt.Printf("  span %-32s ×%-5d total %9.4f s  self %9.4f s\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
	for _, w := range rep.Warnings {
		fmt.Println("  shape warning:", w)
	}
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", rep.Attempted, rep.Failed)
}

// single runs one workload in this process and prints its report, ending
// with the result line.
func single(name string, seed int64, seconds float64, trace, strict bool, out, traceOut string) (int, error) {
	w, err := findWorkload(name)
	if err != nil {
		return 0, err
	}
	scratch, err := newScratch(scratchRoot)
	if err != nil {
		return 0, err
	}
	defer func() {
		os.RemoveAll(scratch)
		os.Remove(scratchRoot) // succeeds only once no other run is using it
	}()
	opt := runOpts{seed: seed, seconds: seconds, accN: accuracyN, scratch: scratch}
	if trace {
		// The traced pass reports neither set-up time nor force error.
		opt.trace, opt.accN, opt.traceOut = true, 0, traceOut
	}
	res, err := runOnce(w, opt)
	if err != nil {
		return 0, err
	}
	if !trace {
		// setup_s is a median over set-ups, and every one of them must pay
		// what a user's first pays (the process-wide Green table, cold
		// arenas), so the others run in fresh processes.
		setups := []float64{res.e2e["setup_s"]}
		for len(setups) < w.setups {
			line, err := child(false, "-workload", name, "-seed", fmt.Sprint(seed), "-setuponly")
			if err != nil {
				return 0, err
			}
			setups = append(setups, line.Metrics["setup_s"].Value)
			res.ops.attempted += line.Attempted
			res.ops.failed += line.Failed
		}
		res.e2e["setup_s"] = median(setups)
		// The accuracy check fails against the recorded fingerprint of the
		// workload as defined here (the smoke test's shrunken ones have none).
		if base, ok := baselineForceErr(name); ok && res.e2e["force_rms_err"] > 2*base {
			res.ops.fail("force_rms_err %.6g exceeds 2× the recorded baseline %.6g", res.e2e["force_rms_err"], base)
		}
	}
	rep := report(res, seed, trace)
	rep.print(res.walls)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return 0, err
		}
	}
	if err := printLine(rep.line()); err != nil {
		return 0, err
	}
	if rep.Failed > 0 || (strict && len(rep.Warnings) > 0) {
		return 1, nil
	}
	return 0, nil
}

// setupOnly sets one workload up once and prints only a result line, whose
// one metric is this process's setup_s.
func setupOnly(name string, seed int64) (int, error) {
	w, err := findWorkload(name)
	if err != nil {
		return 0, err
	}
	res, err := runOnce(w, runOpts{seed: seed, setupOnly: true})
	if err != nil {
		return 0, err
	}
	line := resultLine{
		Correct: res.ops.failed == 0, Attempted: res.ops.attempted, Failed: res.ops.failed,
		Metrics: map[string]lineMetric{"setup_s": {Value: res.e2e["setup_s"], Unit: "s"}},
	}
	return b2i(!line.Correct), printLine(line)
}

func printLine(l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// names of the metrics a run of the given kind reports, in table order.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}
