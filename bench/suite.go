package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// child re-executes this binary with args in a fresh process, waits for it,
// and returns its result line; with show it passes the report above that
// line through.
func child(show bool, args ...string) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	if show && cut > 0 {
		fmt.Println(indent(text[:cut]))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return line, fmt.Errorf("bench %s: no result line (%v): %w", strings.Join(args, " "), runErr, err)
	}
	// A child that printed a result and then exited non-zero had failed
	// operations; the caller sees them in the line.
	return line, nil
}

// runChild runs one workload once in a fresh process, so rss_peak_mb belongs
// to that run alone.
func runChild(workload string, seed int64, seconds float64, trace bool, extra ...string) (resultLine, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(b2i(trace)),
	}
	return child(true, append(args, extra...)...)
}

// set is the result lines of one set of runs: per workload, one per run.
type set map[string][]resultLine

func (s set) values(workload, metric string) []float64 {
	var xs []float64
	for _, l := range s[workload] {
		xs = append(xs, l.Metrics[metric].Value)
	}
	return xs
}

func (s set) failed() (attempted, failed int) {
	for _, lines := range s {
		for _, l := range lines {
			attempted += l.Attempted
			failed += l.Failed
		}
	}
	return
}

// runSet runs every workload len(seeds) times, interleaved round-robin so
// that drift of the machine hits all workloads alike.
func runSet(seeds []int64, seconds float64, trace bool, extra func(workload string) []string) (set, error) {
	out := set{}
	for _, seed := range seeds {
		for _, w := range workloads() {
			var args []string
			if extra != nil {
				args = extra(w.name)
			}
			line, err := runChild(w.name, seed, seconds, trace, args...)
			if err != nil {
				return nil, err
			}
			out[w.name] = append(out[w.name], line)
		}
	}
	return out, nil
}

// summary is one metric of one workload over the runs of a set.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"iqr_over_median"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

func summarize(xs []float64, unit string) summary {
	s := summary{Median: median(xs), Min: math.Inf(1), Max: math.Inf(-1), Spread: iqrShare(xs), Unit: unit, Runs: len(xs)}
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	return s
}

func (s set) summaries(trace bool) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, w := range workloads() {
		out[w.name] = map[string]summary{}
		for _, d := range metricDefs(trace) {
			out[w.name][d.name] = summarize(s.values(w.name, d.name), d.unit)
		}
	}
	return out
}

func printSummaries(sum map[string]map[string]summary, trace bool) {
	for _, w := range workloads() {
		fmt.Printf("%s — %s\n", w.name, w.why)
		for _, d := range metricDefs(trace) {
			m := sum[w.name][d.name]
			fmt.Printf("  %-36s median %14.6g %-8s min..max %.6g..%.6g over %d runs\n", d.name, m.Median, m.Unit, m.Min, m.Max, m.Runs)
		}
	}
}

// suiteReport is what runSuite writes with -out; bench/results/baseline.json
// is one of these.
type suiteReport struct {
	Seed       int64                         `json:"seed"`
	RunSeconds float64                       `json:"run_seconds"`
	Trace      bool                          `json:"trace"`
	NProc      int                           `json:"nproc"`
	GoMaxProcs int                           `json:"gomaxprocs"`
	Attempted  int                           `json:"ops_attempted"`
	Failed     int                           `json:"ops_failed"`
	Workloads  map[string]map[string]summary `json:"workloads"`
}

// runSuite is the plain command: reps runs of every workload on one seed, the
// median of each metric with its range.
func runSuite(seed int64, seconds float64, trace bool, reps int, strict bool, out string) (int, error) {
	t0 := time.Now()
	seeds := make([]int64, reps)
	for i := range seeds {
		seeds[i] = seed
	}
	var extra func(string) []string
	if trace {
		// Keep the Chrome traces of a traced suite next to the other results.
		extra = func(w string) []string {
			args := []string{"-tracefile", filepath.Join("bench", "results", "trace-"+w+".json")}
			if strict {
				args = append(args, "-strict")
			}
			return args
		}
	}
	s, err := runSet(seeds, seconds, trace, extra)
	if err != nil {
		return 0, err
	}
	sum := s.summaries(trace)
	printSummaries(sum, trace)
	attempted, failed := s.failed()
	fmt.Printf("ops_attempted %d  ops_failed %d  nproc %d  gomaxprocs %d  wall %.0f s\n",
		attempted, failed, runtime.NumCPU(), runtime.GOMAXPROCS(0), time.Since(t0).Seconds())
	if out != "" {
		rep := suiteReport{
			Seed: seed, RunSeconds: seconds, Trace: trace, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			Attempted: attempted, Failed: failed, Workloads: sum,
		}
		if err := writeJSON(out, rep); err != nil {
			return 0, err
		}
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// exactRepeat are the traced counters that must be identical between two runs
// of the same code on the same seed.
var exactRepeat = []string{"sim.interactions_per_step", "mpi.bytes_per_step", "mpi.msgs_per_step", "sim.ghost_bytes_per_step"}

// aaRow is one workload × metric comparison of the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	A        summary `json:"a"`
	B        summary `json:"b"`
	WorseBy  float64 `json:"b_worse_than_a_by"` // share of A's median; negative = better
	Pass     bool    `json:"pass"`
	Note     string  `json:"note,omitempty"`
}

type aaReport struct {
	Seeds      []int64  `json:"seeds"`
	RunSeconds float64  `json:"run_seconds"`
	NProc      int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Rows       []aaRow  `json:"rows"`
	Exact      []string `json:"exact_repeat_checks"`
	Pass       bool     `json:"pass"`
}

// runAA runs the same code as two sets, each of reps runs per workload on
// seeds seed..seed+reps-1, and holds them to the benchmark's own rule: in
// each set the quartile distance of every end-to-end metric but setup_s stays
// within the metric's bound, and the second median is not worse than the
// first by more than the bound. Per seed, force_rms_err must repeat exactly
// and alloc_mb_per_step within 0.5 %; one traced run per set and workload
// checks the exact-repeat counters.
func runAA(seed int64, seconds float64, reps int, out string) (int, error) {
	seeds := make([]int64, reps)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	var sets [2]set
	var traced [2]set
	for k := range sets {
		var err error
		if sets[k], err = runSet(seeds, seconds, false, nil); err != nil {
			return 0, err
		}
		if traced[k], err = runSet(seeds[:1], seconds, true, nil); err != nil {
			return 0, err
		}
	}
	rep := aaReport{Seeds: seeds, RunSeconds: seconds, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Pass: true}
	sumA, sumB := sets[0].summaries(false), sets[1].summaries(false)
	for _, w := range workloads() {
		for _, d := range endToEnd {
			row := aaRow{Workload: w.name, Metric: d.name, Bound: d.bound, A: sumA[w.name][d.name], B: sumB[w.name][d.name], Pass: true}
			row.WorseBy = (row.B.Median - row.A.Median) / row.A.Median
			if d.better == "higher" {
				row.WorseBy = -row.WorseBy
			}
			if row.WorseBy > d.bound {
				row.Pass, row.Note = false, "second median worse than the first by more than the bound"
			}
			if d.name != "setup_s" && max(row.A.Spread, row.B.Spread) > d.bound {
				row.Pass, row.Note = false, "quartile distance exceeds the bound"
			}
			a, b := sets[0].values(w.name, d.name), sets[1].values(w.name, d.name)
			for i := range a {
				switch {
				case d.name == "force_rms_err" && a[i] != b[i]:
					row.Pass, row.Note = false, fmt.Sprintf("seed %d did not repeat exactly: %v vs %v", seeds[i], a[i], b[i])
				case d.name == "alloc_mb_per_step" && math.Abs(a[i]-b[i]) > 0.005*a[i]:
					row.Pass, row.Note = false, fmt.Sprintf("seed %d differs by more than 0.5%%: %v vs %v", seeds[i], a[i], b[i])
				}
			}
			rep.Pass = rep.Pass && row.Pass
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("%-16s %-22s A %12.6g (spread %5.2f%%)  B %12.6g (spread %5.2f%%)  B worse by %+6.2f%%  bound %4.1f%%  %s %s\n",
				w.name, d.name, row.A.Median, 100*row.A.Spread, row.B.Median, 100*row.B.Spread, 100*row.WorseBy, 100*d.bound, passWord(row.Pass), row.Note)
		}
		for _, m := range exactRepeat {
			a, b := traced[0].values(w.name, m)[0], traced[1].values(w.name, m)[0]
			ok := a == b
			rep.Pass = rep.Pass && ok
			rep.Exact = append(rep.Exact, fmt.Sprintf("%s %s: %v vs %v %s", w.name, m, a, b, passWord(ok)))
			fmt.Printf("%-16s %-32s %v vs %v  %s\n", w.name, m, a, b, passWord(ok))
		}
	}
	for k := range sets {
		if _, failed := sets[k].failed(); failed > 0 {
			rep.Pass = false
		}
		if _, failed := traced[k].failed(); failed > 0 {
			rep.Pass = false
		}
	}
	fmt.Println("A/A", passWord(rep.Pass))
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return 0, err
		}
	}
	if !rep.Pass {
		return 1, nil
	}
	return 0, nil
}

func passWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "EXCEEDED"
}
