package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"greem/internal/sim"
	"greem/internal/telemetry"
)

// tableRows are the Table-I rows: per step, maximum over ranks, from deltas
// of Sim.Timers over the measured window.
var tableRows = []struct {
	name string
	get  func(t sim.Timers) float64
}{
	{"sim.pm_density_s", func(t sim.Timers) float64 { return t.PM.Density.Seconds() }},
	{"sim.pm_comm_s", func(t sim.Timers) float64 { return t.PM.Comm.Seconds() }},
	{"sim.pm_fft_s", func(t sim.Timers) float64 { return t.PM.FFT.Seconds() }},
	{"sim.pm_meshforce_s", func(t sim.Timers) float64 { return t.PM.MeshForce.Seconds() }},
	{"sim.pm_interp_s", func(t sim.Timers) float64 { return t.PM.Interp.Seconds() }},
	{"sim.pp_localtree_s", func(t sim.Timers) float64 { return t.PPLocalTree }},
	{"sim.pp_comm_s", func(t sim.Timers) float64 { return t.PPComm }},
	{"sim.pp_let_s", func(t sim.Timers) float64 { return t.PPLET }},
	{"sim.pp_treebuild_s", func(t sim.Timers) float64 { return t.PPTreeConstr }},
	{"sim.pp_traverse_s", func(t sim.Timers) float64 { return t.PPTraverse }},
	{"sim.pp_force_s", func(t sim.Timers) float64 { return t.PPForce }},
	{"sim.dd_posupdate_s", func(t sim.Timers) float64 { return t.DDPosUpdate }},
	{"sim.dd_sampling_s", func(t sim.Timers) float64 { return t.DDSampling }},
	{"sim.dd_exchange_s", func(t sim.Timers) float64 { return t.DDExchange }},
}

// simRows fills the sim.*, mpi ledger and telemetry metrics from the
// snapshots taken around the measured window, whose summed step wall is wall.
func (wd *world) simRows(wall float64) {
	steps := float64(len(wd.walls))
	set := func(name string, v value) { wd.layer[name] = v }

	var rank0Rows float64
	for _, row := range tableRows {
		var mx float64
		for r := range wd.before {
			mx = max(mx, row.get(wd.after[r].t)-row.get(wd.before[r].t))
		}
		set(row.name, num(mx/steps))
		rank0Rows += row.get(wd.after[0].t) - row.get(wd.before[0].t)
	}
	// Work counters cover the first w.steps measured steps, a window that
	// does not depend on how fast the machine is, so they repeat exactly.
	counted := float64(wd.w.steps)
	var hiddenMax, inter, interMax, groups, sumNi, list, ghostBytes, mono, leaves float64
	for r := range wd.before {
		hiddenMax = max(hiddenMax, wd.after[r].hidden-wd.before[r].hidden)
		b, a := wd.before[r], wd.counted[r]
		d := float64(a.c.Interactions - b.c.Interactions)
		inter += d
		interMax = max(interMax, d)
		groups += float64(a.c.Groups - b.c.Groups)
		sumNi += float64(a.c.SumNi - b.c.SumNi)
		list += float64(a.c.ListParticles-b.c.ListParticles) + float64(a.c.ListNodes-b.c.ListNodes)
		ghostBytes += float64(a.g.Bytes - b.g.Bytes)
		mono += float64(a.g.Monopoles - b.g.Monopoles)
		leaves += float64(a.g.Leaves - b.g.Leaves)
	}
	set("sim.overlap_hidden_s", num(hiddenMax/steps))
	// Rank 0's rows explain its step wall once the solve seconds hidden
	// behind PP are taken out again and the in-situ and checkpoint phases,
	// which are inside the timed steps, are added.
	b0, a0 := wd.before[0], wd.after[0]
	explained := rank0Rows - (a0.hidden - b0.hidden) + (a0.analysis - b0.analysis) + (a0.ckpt - b0.ckpt)
	set("sim.unattributed_frac", num((wall-explained)/wall))
	// The bare kernel needs the busiest rank's interactions, or, when ranks
	// outnumber threads, every rank's interactions shared among the threads.
	p50 := percentile(wd.walls, 50)
	if k := wd.layer["ppkern.f32_ns_per_interaction"]; k.null == "" {
		floor := max(interMax, inter/float64(runtime.GOMAXPROCS(0))) / counted * k.v * 1e-9
		set("sim.kernel_floor_frac", num(floor/p50))
	} else {
		set("sim.kernel_floor_frac", value{null: "kernel probe did not run"})
	}
	set("sim.interactions_per_step", num(inter/counted))
	set("sim.mean_ni", ratio(sumNi, groups, "no groups"))
	set("sim.mean_nj", ratio(list, groups, "no groups"))
	set("sim.ghost_bytes_per_step", num(ghostBytes/counted))
	set("sim.let_monopole_frac", ratio(mono, mono+leaves, "LET export empty"))
	set("sim.rank_imbalance_interactions", ratio(interMax*ranks, inter, "no interactions"))
	set("sim.new_s", num(wd.newSeconds))
	set("sim.mallocs_per_step", num(wd.mallocs/steps))

	set("mpi.msgs_per_step", num(float64(wd.ledgerAfter.msgs-wd.ledgerBefore.msgs)/counted))
	set("mpi.bytes_per_step", num(float64(wd.ledgerAfter.bytes-wd.ledgerBefore.bytes)/counted))
	set("mpi.ledger_ops_end", num(float64(wd.ledgerAfter.ops)))

	var on, off []float64
	for i, w := range wd.walls {
		if i%2 == 1 {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	const idle = "no traced step in the window"
	if len(on) == 0 {
		set("telemetry.trace_overhead_frac", value{null: idle})
		set("telemetry.span_events_per_step", value{null: idle})
		return
	}
	var events float64
	for r := range wd.before {
		events += float64(wd.after[r].events - wd.before[r].events)
	}
	set("telemetry.trace_overhead_frac", num(median(on)/median(off)-1))
	set("telemetry.span_events_per_step", num(events/float64(len(on))))
}

// shapeAssertions checks that a workload still stresses the layers it was
// chosen for; it returns one line per assertion that does not hold. Shares
// are of the median step wall.
func shapeAssertions(name string, layer map[string]value, stepWall float64) []string {
	share := func(rows ...string) float64 {
		var s float64
		for _, r := range rows {
			s += layer[r].v
		}
		return s / stepWall
	}
	pm := []string{"sim.pm_density_s", "sim.pm_comm_s", "sim.pm_fft_s", "sim.pm_meshforce_s", "sim.pm_interp_s"}
	var warn []string
	atLeast := func(what string, got, want float64) {
		if got < want {
			warn = append(warn, fmt.Sprintf("%s: %s is %.0f%% of the step, expected at least %.0f%%", name, what, 100*got, 100*want))
		}
	}
	atMost := func(what string, got, want float64) {
		if got > want {
			warn = append(warn, fmt.Sprintf("%s: %s is %.0f%% of the step, expected at most %.0f%%", name, what, 100*got, 100*want))
		}
	}
	switch name {
	case "clustered64":
		atLeast("tree traversal + force", share("sim.pp_traverse_s", "sim.pp_force_s"), 0.60)
	case "uniform_mesh128":
		atLeast("PM rows + particle exchange", share(append(pm, "sim.dd_exchange_s")...), 0.50)
		atMost("force kernel", share("sim.pp_force_s"), 0.15)
	case "tiny_pencil16":
		atLeast("ghost exchange + sampling + particle exchange", share("sim.pp_comm_s", "sim.dd_sampling_s", "sim.dd_exchange_s"), 0.50)
		atMost("force kernel", share("sim.pp_force_s"), 0.20)
	}
	return warn
}

// spanSelf is the total and self time of one kind of bench span on a rank:
// self is the span's duration minus the part its child spans cover.
type spanSelf struct {
	name        string
	count       int
	total, self time.Duration
}

// spanSelfTimes folds a recorder's trace into per-name totals for the bench
// spans. Spans nest and a span's event is appended when it ends, so the
// children of a span at depth d are the depth-d+1 events since the previous
// depth-d event.
func spanSelfTimes(rec *telemetry.Recorder) []spanSelf {
	var covered []time.Duration // by depth: child time not yet claimed by a parent
	byName := map[string]*spanSelf{}
	var order []string
	for _, ev := range rec.Events() {
		d := int(ev.Depth)
		for len(covered) <= d+1 {
			covered = append(covered, 0)
		}
		self := ev.Dur - covered[d+1]
		covered[d+1] = 0
		covered[d] += ev.Dur
		if !strings.HasPrefix(ev.Name, "bench/") {
			continue
		}
		s := byName[ev.Name]
		if s == nil {
			s = &spanSelf{name: ev.Name}
			byName[ev.Name] = s
			order = append(order, ev.Name)
		}
		s.count++
		s.total += ev.Dur
		s.self += self
	}
	out := make([]spanSelf, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// writeTrace writes every rank's timeline, bench spans included, as one
// Chrome trace.
func writeTrace(path string, recs []*telemetry.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := telemetry.WriteChromeTrace(w, recs...); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
