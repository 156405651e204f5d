package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"greem/internal/telemetry"
)

// small shrinks a workload to 8³ particles and two measured steps, keeping
// its FFT layout, stepper and emission path.
func small(w *workload) {
	w.np, w.nmesh = 8, w.nmesh/8
	if w.nmesh < 8 {
		w.nmesh = 8
	}
	w.warm, w.steps = 2, 2
	if w.cadence > 0 {
		w.warm, w.cadence = 3, 2
	}
}

// TestSmoke runs every workload small, untraced and traced, and requires
// every metric name with its unit and a finite value (or, per layer, null
// with a reason), no failed operation, and a report that survives JSON.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		small(w)
		for _, trace := range []bool{false, true} {
			opt := runOpts{seed: devSeed, trace: trace, scratch: t.TempDir()}
			if !trace {
				opt.accN = 32
			}
			res, err := runOnce(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if len(res.walls) != 2 {
				t.Errorf("%s trace=%v: %d measured steps, want 2", w.name, trace, len(res.walls))
			}
			rep := report(res, devSeed, trace)
			if rep.Failed != 0 || rep.Attempted < 5 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.name, trace, rep.Attempted, rep.Failed, rep.Failures)
			}
			if w.cadence > 0 && rep.Attempted < 5+3 { // a write, an emission and the restore on top of the steps
				t.Errorf("%s trace=%v: attempted %d, the emission path did not run", w.name, trace, rep.Attempted)
			}
			defs := metricDefs(trace)
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.name, d.name)
				case m.Unit != d.unit || m.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case m.Value == nil && (m.Null == "" || !trace):
					t.Errorf("%s: %s has no value and no reason", w.name, d.name)
				case m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)):
					t.Errorf("%s: %s = %v", w.name, d.name, *m.Value)
				case m.Value != nil && !trace && *m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, d.name, *m.Value)
				}
			}

			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back runReport
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, back) {
				t.Errorf("%s trace=%v: report changed across JSON:\n%+v\n%+v", w.name, trace, rep, back)
			}
			line := rep.line()
			if !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line %+v", w.name, trace, line)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go and
// workloads.go, so the contract file cannot drift from what the program emits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", f.RunSeconds, runSeconds)
	}
	var wantW, wantE, wantL []entry
	for _, w := range workloads() {
		wantW = append(wantW, entry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		wantE = append(wantE, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range perLayer {
		wantL = append(wantL, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	if !reflect.DeepEqual(f.Workloads, wantW) {
		t.Errorf("workloads:\n have %+v\n want %+v", f.Workloads, wantW)
	}
	if !reflect.DeepEqual(f.EndToEnd, wantE) {
		t.Errorf("end_to_end:\n have %+v\n want %+v", f.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(f.PerLayer, wantL) {
		t.Errorf("per_layer:\n have %+v\n want %+v", f.PerLayer, wantL)
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {50, 5}, {75, 7}, {100, 9}, {62.5, 6}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	// At least ten samples beyond: 14 and 39 samples hold only the median,
	// 40 reach p75 (10 beyond), 100 p90, 200 p95, 1000 and 1800 p99, and
	// 10000 p99.9.
	for _, c := range []struct {
		n    int
		want float64
	}{{14, 50}, {39, 50}, {40, 75}, {42, 75}, {90, 75}, {100, 90}, {200, 95}, {1000, 99}, {1800, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got := iqrShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestSpanSelfTimes: a 10 s parent with children of 3 s and 4 s has 3 s of
// its own, and a second parent does not inherit the first one's children.
func TestSpanSelfTimes(t *testing.T) {
	now := time.Unix(0, 0)
	rec := telemetry.NewRecorder(0, func() time.Time { return now })
	rec.EnableTrace(true)
	advance := func(s int) { now = now.Add(time.Duration(s) * time.Second) }

	p := rec.Start("bench/step")
	advance(1)
	c := rec.Start("PP")
	advance(3)
	c.End()
	c = rec.Start("DD")
	g := rec.Start("dd/exchange") // a grandchild must not be counted twice
	advance(4)
	g.End()
	c.End()
	advance(2)
	p.End()
	p = rec.Start("bench/step")
	advance(5)
	p.End()

	got := spanSelfTimes(rec)
	want := []spanSelf{{name: "bench/step", count: 2, total: 15 * time.Second, self: 8 * time.Second}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("have %+v, want %+v", got, want)
	}
}
