package main

import (
	"math"
	"sort"
)

// metricDef describes one metric. bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen before a
// change counts as a regression. moves names, for a per-layer metric, the
// end-to-end metric and workload it is expected to move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd is the list BENCHMARK.json carries. The bounds start from the
// ISSUE's table (25 / 8 / 10 / 8 / 2 / 10 / 1 %) and are widened, never
// narrowed, to what this 2-core shared host needs: in a quiet half hour ten
// runs on ten seeds spread 2-6 % on every wall-clock metric, but the host
// also has phases of about a quarter of an hour in which every workload runs
// 20-30 % slower, and a set that straddles one spreads 13-25 %. So the
// wall-clock metrics take the widest bound the contract allows; the work
// counters of the traced pass and alloc_mb_per_step are the tight evidence.
// The runs behind this are in bench/README.md and bench/results/.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "step_s_p50", unit: "s", better: "lower", bound: 0.25},
	{name: "step_s_p75", unit: "s", better: "lower", bound: 0.25},
	{name: "particle_steps_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_mb_per_step", unit: "MB", better: "lower", bound: 0.03},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "force_rms_err", unit: "ratio", better: "lower", bound: 0.01},
}

const (
	ppOn   = "step_s_p50 on clustered64, cosmo_relay64; none on uniform_mesh128, tiny_pencil16"
	pmOn   = "step_s_p50 on uniform_mesh128"
	commOn = "step_s_p50 on tiny_pencil16"
	cosmoT = "particle_steps_per_s on cosmo_relay64"
)

// perLayer is the traced pass's list, layer.metric. A metric is never
// omitted: a layer that is idle on a workload reports null with the reason.
var perLayer = []metricDef{
	{name: "sim.pm_density_s", unit: "s", better: "lower", moves: pmOn},
	{name: "sim.pm_comm_s", unit: "s", better: "lower", moves: pmOn},
	{name: "sim.pm_fft_s", unit: "s", better: "lower", moves: pmOn},
	{name: "sim.pm_meshforce_s", unit: "s", better: "lower", moves: pmOn},
	{name: "sim.pm_interp_s", unit: "s", better: "lower", moves: pmOn},
	{name: "sim.pp_localtree_s", unit: "s", better: "lower", moves: ppOn},
	{name: "sim.pp_comm_s", unit: "s", better: "lower", moves: commOn},
	{name: "sim.pp_let_s", unit: "s", better: "lower", moves: ppOn},
	{name: "sim.pp_treebuild_s", unit: "s", better: "lower", moves: ppOn},
	{name: "sim.pp_traverse_s", unit: "s", better: "lower", moves: ppOn},
	{name: "sim.pp_force_s", unit: "s", better: "lower", moves: ppOn},
	{name: "sim.dd_posupdate_s", unit: "s", better: "lower", moves: commOn},
	{name: "sim.dd_sampling_s", unit: "s", better: "lower", moves: commOn},
	{name: "sim.dd_exchange_s", unit: "s", better: "lower", moves: "step_s_p50 on uniform_mesh128, tiny_pencil16"},
	{name: "sim.overlap_hidden_s", unit: "s", better: "higher", moves: "step_s_p50 on every workload (PM solve hidden behind PP)"},
	{name: "sim.unattributed_frac", unit: "frac", better: "lower", moves: "step_s_p50 on every workload (time no row explains)"},
	{name: "sim.kernel_floor_frac", unit: "frac", better: "higher", moves: "step_s_p50 on clustered64 (share of the step the bare kernel needs)"},
	{name: "sim.interactions_per_step", unit: "count", better: "lower", moves: ppOn},
	{name: "sim.mean_ni", unit: "count", better: "higher", moves: ppOn},
	{name: "sim.mean_nj", unit: "count", better: "lower", moves: ppOn},
	{name: "sim.ghost_bytes_per_step", unit: "B", better: "lower", moves: "step_s_p50 on clustered64, tiny_pencil16"},
	{name: "sim.let_monopole_frac", unit: "frac", better: "higher", moves: "step_s_p50 on clustered64 (pruned share of the LET export)"},
	{name: "sim.rank_imbalance_interactions", unit: "ratio", better: "lower", moves: "step_s_p50 on clustered64 (the slowest rank sets the step)"},
	{name: "sim.new_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
	{name: "sim.mallocs_per_step", unit: "count", better: "lower", moves: "alloc_mb_per_step on every workload"},

	{name: "ppkern.f32_ns_per_interaction", unit: "ns", better: "lower", moves: ppOn},
	{name: "ppkern.f32_gflops_51op", unit: "Gflop/s", better: "higher", moves: ppOn},
	{name: "ppkern.f64ref_ns_per_interaction", unit: "ns", better: "lower", moves: "force_rms_err oracle only"},
	{name: "ppkern.inwalk_ns_per_interaction", unit: "ns", better: "lower", moves: ppOn},

	{name: "tree.build_ns_per_particle", unit: "ns", better: "lower", moves: ppOn},
	{name: "tree.build_allocs", unit: "count", better: "lower", moves: "alloc_mb_per_step on clustered64"},
	{name: "tree.walk_s", unit: "s", better: "lower", moves: ppOn},
	{name: "tree.traverse_ns_per_interaction", unit: "ns", better: "lower", moves: ppOn},
	{name: "tree.let_collect_s", unit: "s", better: "lower", moves: ppOn},
	{name: "tree.let_sources", unit: "count", better: "lower", moves: "step_s_p50 on clustered64; force_rms_err everywhere"},

	{name: "mpi.barrier_us", unit: "us", better: "lower", moves: commOn},
	{name: "mpi.allgather_small_us", unit: "us", better: "lower", moves: commOn},
	{name: "mpi.alltoall_ghost_s", unit: "s", better: "lower", moves: "step_s_p50 on uniform_mesh128, clustered64"},
	{name: "mpi.alltoall_mb_per_s", unit: "MB/s", better: "higher", moves: "step_s_p50 on uniform_mesh128, clustered64"},
	{name: "mpi.alltoall_alloc_ratio", unit: "ratio", better: "lower", moves: "alloc_mb_per_step on every workload"},
	{name: "mpi.msgs_per_step", unit: "count", better: "lower", moves: commOn},
	{name: "mpi.bytes_per_step", unit: "B", better: "lower", moves: pmOn},
	{name: "mpi.ledger_ops_end", unit: "count", better: "lower", moves: "rss_peak_mb on tiny_pencil16"},

	{name: "domain.decompose_us", unit: "us", better: "lower", moves: commOn},
	{name: "domain.imbalance_particles", unit: "ratio", better: "lower", moves: "step_s_p50 on clustered64"},

	{name: "pmpar.new_s", unit: "s", better: "lower", moves: "step_s_p50 on uniform_mesh128"},
	{name: "pmpar.new_alloc_mb", unit: "MB", better: "lower", moves: "alloc_mb_per_step, rss_peak_mb on every workload"},
	{name: "pmpar.accel_s", unit: "s", better: "lower", moves: "step_s_p50 on uniform_mesh128 (naive), cosmo_relay64 (relay), tiny_pencil16 (pencil)"},
	{name: "pmpar.accel_alloc_mb", unit: "MB", better: "lower", moves: "alloc_mb_per_step on uniform_mesh128"},
	{name: "pmpar.alltoall_bytes", unit: "B", better: "lower", moves: pmOn},

	{name: "pfft.r2c_roundtrip_s", unit: "s", better: "lower", moves: pmOn},
	{name: "pfft.alltoall_bytes", unit: "B", better: "lower", moves: pmOn},
	{name: "pfft.gflops", unit: "Gflop/s", better: "higher", moves: pmOn},
	{name: "fft.r2c3d_roundtrip_s", unit: "s", better: "lower", moves: pmOn},
	{name: "fft.gflops", unit: "Gflop/s", better: "higher", moves: pmOn},
	{name: "mesh.assign_ns_per_particle", unit: "ns", better: "lower", moves: pmOn},
	{name: "mesh.solve_s", unit: "s", better: "lower", moves: pmOn},
	{name: "mesh.interp_ns_per_particle", unit: "ns", better: "lower", moves: pmOn},

	{name: "ic.generate_s", unit: "s", better: "lower", moves: "setup_s on cosmo_relay64"},
	{name: "checkpoint.write_s", unit: "s", better: "lower", moves: cosmoT},
	{name: "checkpoint.write_mb_per_s", unit: "MB/s", better: "higher", moves: cosmoT},
	{name: "checkpoint.restore_s", unit: "s", better: "lower", moves: cosmoT},
	{name: "snapshot.encode_mb_per_s", unit: "MB/s", better: "higher", moves: cosmoT},
	{name: "analysis.fof_s", unit: "s", better: "lower", moves: cosmoT},
	{name: "analysis.insitu_s_per_emit", unit: "s", better: "lower", moves: cosmoT},

	{name: "telemetry.trace_overhead_frac", unit: "frac", better: "lower", moves: "step_s_p50 on every workload (budget 0.02)"},
	{name: "telemetry.span_events_per_step", unit: "count", better: "lower", moves: "telemetry.trace_overhead_frac"},
}

// value is a per-layer measurement; null carries the reason when the layer
// was idle and there is nothing to report.
type value struct {
	v    float64
	null string
}

func num(v float64) value {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return value{null: "not finite"}
	}
	return value{v: v}
}

// ratio is a/b, or null with the reason when b is zero.
func ratio(a, b float64, idle string) value {
	if b == 0 {
		return value{null: idle}
	}
	return num(a / b)
}

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest reported percentile that still has at least
// ten of n samples beyond it; 50 when even p75 has fewer.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		q        float64
		perMille int // samples beyond q, per thousand
	}{{75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if n*c.perMille >= 10*1000 {
			best = c.q
		}
	}
	return best
}

// iqrShare is the distance between the first and third quartile (exclusive
// method, as Python's statistics.quantiles(xs, n=4)) as a share of the median.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / math.Abs(median(s))
}
