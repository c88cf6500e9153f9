//! The metric catalogue: every metric the benchmark emits, with its unit.
//! `BENCHMARK.json` at the repository root declares the same names with
//! their directions and regression bounds; the smoke test checks the two
//! agree.

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// Emitted by the untraced run (`--trace 0`). The rep wall is reported
/// as the fastest rep: on a shared host every disturbance only adds
/// time, and the median and the tail move with the neighbours' load by
/// more than any bound allowed (README.md, "Host noise"). Both are kept
/// in the run report.
pub const END_TO_END: [Metric; 3] = [
    ("wall_min_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Emitted by the traced run (`--trace 1`). A metric named `<span>_s`
/// whose span the workload records is that span's total seconds per
/// iteration; the others come from the workloads' observations or, for
/// `run.*` and `trace.*`, from the run itself. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [Metric; 45] = [
    ("bench.fig2_s", "s"),
    ("bench.fig3_s", "s"),
    ("bench.fig4a_s", "s"),
    ("bench.fig4b_s", "s"),
    ("bench.fig4c_s", "s"),
    ("bench.transient_s", "s"),
    ("bench.ablation_s", "s"),
    ("bench.table_render_s", "s"),
    ("des.events", "count"),
    ("des.events_per_download", "ratio"),
    ("des.ns_per_event", "ns"),
    ("des.heap_peak", "count"),
    ("des.stale_frac", "ratio"),
    ("des.rate_recomputes", "count"),
    ("des.rate_clean_hit_frac", "ratio"),
    ("des.agg_rate_updates", "count"),
    ("des.agg_samples", "count"),
    ("des.heap_ops_ns", "ns"),
    ("des.rate_maint_ns", "ns"),
    ("des.member_sample_ns", "ns"),
    ("des.hook_dispatch_ns", "ns"),
    ("des.sink_write_ns", "ns"),
    ("des.unaccounted_frac", "ratio"),
    ("hybrid.discrete_s", "s"),
    ("hybrid.fluid_s", "s"),
    ("hybrid.handoff_s", "s"),
    ("hybrid.boundaries", "count"),
    ("hybrid.handoffs", "count"),
    ("hybrid.des_events", "count"),
    ("hybrid.fluid_steps", "count"),
    ("hybrid.ns_per_fluid_step", "ns"),
    ("hybrid.ns_per_des_event", "ns"),
    ("harness.cell_wall_s", "s"),
    ("harness.pool_efficiency", "ratio"),
    ("harness.journal_bytes", "bytes"),
    ("harness.attempts_per_cell", "ratio"),
    ("workload.synthesize_s", "s"),
    ("workload.encode_s", "s"),
    ("workload.decode_s", "s"),
    ("workload.trace_bytes", "bytes"),
    ("scenario.trace_program_s", "s"),
    ("run.downloads_per_s", "1/s"),
    ("run.sim_time_per_s", "tu/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Quantile of the rep walls the run report gives as the tail: the
/// highest of p99/p90/p75 that leaves at least ten reps beyond it at
/// the rep counts a default run makes.
pub fn tail_quantile(workload: &str) -> f64 {
    match workload {
        "figures" => 0.99,
        "flash_hybrid" => 0.9,
        _ => 0.75,
    }
}
