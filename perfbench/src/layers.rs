//! Per-layer metrics of a traced run, and the layer-share table the
//! notes quote.

use std::collections::BTreeMap;

use locus_trace::Event;

use crate::replay::Counters;
use crate::spans::Spans;
use crate::stats::{metric, ratio, Metric};

/// Client-side view of the daemon (all zero on the library workloads).
#[derive(Debug, Clone, Default)]
pub struct DaemonView {
    pub ping_ms: f64,
    pub tune_cold_ms: f64,
    pub tune_warm_ms: f64,
    pub suggest_ms: f64,
    pub queued_max: f64,
    pub error_replies: f64,
}

/// Everything a traced run measured.
pub struct TracedRun {
    pub spans: Spans,
    pub counters: Counters,
    /// Wall-clock of the same sessions run untraced by the real driver.
    pub untraced_s: f64,
    /// Wall-clock of the same sessions run by the real driver with its
    /// own tracer enabled.
    pub driver_traced_s: f64,
    /// The real driver's trace events of those sessions.
    pub driver_events: Vec<Event>,
    pub store_bytes: f64,
    pub daemon: DaemonView,
}

/// The layer a span belongs to: the part of its name before the dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer. The analysis probe (`analysis.probe` and the
/// `analysis.deps` calls inside it) is reported but kept out of the
/// driver's busy time: the driver never calls it directly.
fn layer_self(spans: &Spans) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, secs) in spans.self_times() {
        *out.entry(layer(name).to_string()).or_insert(0.0) += secs;
    }
    out
}

/// The real driver's `phase` span totals, in seconds, by phase name.
fn phase_totals(events: &[Event]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| e.cat == "phase") {
        *out.entry(e.name.clone()).or_insert(0.0) += e.dur_us.unwrap_or(0) as f64 * 1e-6;
    }
    out
}

fn dominant<'a>(groups: &[(&'a str, f64)]) -> &'a str {
    groups
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |g| g.0)
}

/// Computes every per-layer metric and prints the share table and the
/// driver cross-check to stderr.
pub fn per_layer(workload: &str, run: &TracedRun) -> Vec<Metric> {
    let own = run.spans.self_times();
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let layers = layer_self(&run.spans);
    let layer_s = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let analysis_s = layer_s("analysis");
    let busy_s: f64 = layers.values().sum::<f64>() - analysis_s;
    let c = &run.counters;

    let run_s = get("machine.run");
    let compile_s = get("machine.compile");
    let phases = phase_totals(&run.driver_events);
    let phase = |name: &str| phases.get(name).copied().unwrap_or(0.0);
    let phase_other: f64 = phases
        .iter()
        .filter(|(n, _)| !["propose", "build-verify", "measure", "merge"].contains(&n.as_str()))
        .map(|(_, v)| v)
        .sum();

    // The cross-check: which pipeline stage dominates, by the driver's
    // own phase spans and by the replay's layer self times mapped onto
    // the same stages.
    let driver_groups = [
        ("propose", phase("propose")),
        ("build-verify", phase("build-verify")),
        ("measure", phase("measure")),
        ("merge", phase("merge")),
    ];
    let replay_groups = [
        ("propose", get("search.propose") + get("transform.oracle")),
        (
            "build-verify",
            get("lang.digest") + get("memo.lookup") + get("transform.build"),
        ),
        ("measure", run_s + compile_s),
        ("merge", get("memo.insert") + get("search.observe")),
    ];
    let (driver_top, replay_top) = (dominant(&driver_groups), dominant(&replay_groups));
    eprintln!("perfbench: {workload}: driver phases (s, 2 threads, wall): {driver_groups:?}");
    eprintln!("perfbench: {workload}: replay stages (s, 1 thread, busy): {replay_groups:?}");
    if driver_top != replay_top {
        eprintln!(
            "perfbench: {workload}: the driver's phases put {driver_top} first, the replay puts {replay_top} first"
        );
    }
    eprintln!("perfbench: {workload}: layer self time, share of {busy_s:.3} s busy:");
    for (name, secs) in &layers {
        eprintln!(
            "perfbench:   {name:<10} {secs:>9.4} s {:>6.1}%",
            100.0 * ratio(*secs, busy_s)
        );
    }

    let level_ratio = |i: usize| ratio(c.level_miss[i] as f64, c.level_reach[i] as f64);
    let d = &run.daemon;
    vec![
        metric("search.proposals", c.proposals as f64, "count"),
        metric(
            "search.propose_s",
            get("search.propose")
                + get("search.observe")
                + get("search.begin")
                + get("search.seed"),
            "s",
        ),
        metric(
            "search.dup_ratio",
            ratio(c.duplicates as f64, c.proposals as f64),
            "ratio",
        ),
        metric(
            "search.invalid_ratio",
            ratio(c.invalid as f64, c.proposals as f64),
            "ratio",
        ),
        metric("lang.digests", c.digests as f64, "count"),
        metric("lang.digest_s", get("lang.digest"), "s"),
        metric("transform.builds", c.builds as f64, "count"),
        metric("transform.build_s", layer_s("transform"), "s"),
        metric("transform.pruned", c.pruned as f64, "count"),
        metric(
            "transform.legal_ratio",
            ratio(c.builds_legal as f64, c.builds as f64),
            "ratio",
        ),
        metric("analysis.regions", c.regions as f64, "count"),
        metric("analysis.deps_s", get("analysis.deps"), "s"),
        metric(
            "analysis.exact_ratio",
            ratio(c.regions_exact as f64, c.regions as f64),
            "ratio",
        ),
        metric("memo.point_hits", c.point_hits as f64, "count"),
        metric("memo.variant_hits", c.variant_hits as f64, "count"),
        metric("memo.coalesced", c.coalesced as f64, "count"),
        metric("memo.store_hits", c.store_hits as f64, "count"),
        metric("memo.misses", c.misses as f64, "count"),
        metric("memo.lookup_s", layer_s("memo"), "s"),
        metric("machine.compiles", c.compiles as f64, "count"),
        metric("machine.compile_s", compile_s, "s"),
        metric("machine.runs", c.runs as f64, "count"),
        metric("machine.run_s", run_s, "s"),
        metric("machine.sim_ops", c.sim_ops as f64, "count"),
        metric(
            "machine.sim_mops_per_s",
            ratio(c.sim_ops as f64, run_s) * 1e-6,
            "Mops/s",
        ),
        metric("machine.l1_miss_ratio", level_ratio(0), "ratio"),
        metric("machine.l2_miss_ratio", level_ratio(1), "ratio"),
        metric("machine.l3_miss_ratio", level_ratio(2), "ratio"),
        metric("store.open_s", get("store.open"), "s"),
        metric("store.records_loaded", c.records_loaded as f64, "count"),
        metric("store.append_s", get("store.append"), "s"),
        metric("store.records_appended", c.records_appended as f64, "count"),
        metric("store.bytes", run.store_bytes, "bytes"),
        metric("daemon.ping_ms", d.ping_ms, "ms"),
        metric("daemon.tune_cold_ms", d.tune_cold_ms, "ms"),
        metric("daemon.tune_warm_ms", d.tune_warm_ms, "ms"),
        metric("daemon.suggest_ms", d.suggest_ms, "ms"),
        metric("daemon.queued_max", d.queued_max, "count"),
        metric("daemon.error_replies", d.error_replies, "count"),
        metric("driver.other_s", layer_s("driver"), "s"),
        metric("driver.overlap", ratio(busy_s, run.untraced_s), "ratio"),
        metric("prepare.busy_s", layer_s("prepare"), "s"),
        metric(
            "trace.overhead_ratio",
            ratio(run.driver_traced_s, run.untraced_s) - 1.0,
            "ratio",
        ),
        metric("phase.propose_s", phase("propose"), "s"),
        metric("phase.build_verify_s", phase("build-verify"), "s"),
        metric("phase.measure_s", phase("measure"), "s"),
        metric("phase.merge_s", phase("merge"), "s"),
        metric("phase.other_s", phase_other, "s"),
        metric(
            "crosscheck.dominant_agree",
            f64::from(u8::from(driver_top == replay_top)),
            "bool",
        ),
    ]
}
