//! One benchmark run: set up, measure one workload (and, traced, the ladder),
//! verify, report.

use crate::ladder::{self, LadderOps, Metrics};
use crate::ops::Dataset;
use crate::run::{self, ConnLog, Plan, Summary, Traffic, Verdict};
use crate::spec::{Workload, WorkloadSpec, EDGE_FACTOR, END_TO_END, PER_LAYER, SETUPS_PER_RUN};
use crate::stats::{median, samples_beyond, supported_tail, MIN_BEYOND};
use crate::trace::Tracer;
use redisgraph_server::ServerConfig;
use std::path::PathBuf;

pub struct RunConfig {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: u32,
    /// Writer ops per round on the mixed workloads.
    pub writer_round: u64,
    /// Where a traced run writes its spans; `None` keeps them in memory only.
    pub trace_path: Option<PathBuf>,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample counts and the like, for the human-readable line only.
    pub note: String,
}

pub struct Report {
    pub header: Vec<String>,
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
}

impl Report {
    /// The result object the driver reads from the last line of stdout.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.failed == 0,
            self.verdict.attempted,
            self.verdict.failed,
            metrics.join(", ")
        )
    }
}

/// The side of the traffic a workload reports: the mixed workloads run the
/// same two connections and differ only in whose latencies they report.
fn reported(workload: Workload, traffic: &Traffic) -> Vec<&ConnLog> {
    match (workload, &traffic.writer) {
        (Workload::MixedWrite, Some(writer)) => vec![writer],
        _ => traffic.lists.iter().collect(),
    }
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

pub fn run_once(cfg: &RunConfig) -> Result<Report, String> {
    let spec = cfg.workload;
    let workload = spec.kind;
    let data = Dataset::new(cfg.scale);
    let plan = Plan::new(workload, &data, cfg.seed, cfg.writer_round);
    let header = vec![
        format!(
            "# rgbench workload={} seed={} seconds={} trace={}",
            spec.name,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!("# why {}", spec.why),
        format!(
            "# dataset graph500 scale={} edge_factor={EDGE_FACTOR} vertices={} distinct_edges={} \
             edges_fnv={:016x}",
            cfg.scale,
            data.vertices,
            data.distinct_edges(),
            data.edges_fnv
        ),
        format!(
            "# ops connections={} pipeline={} writer_round={:?} ops_per_list={:?} ops_per_round={} \
             ops_fnv={:016x}",
            plan.lists.len() + usize::from(plan.writer_round.is_some()),
            plan.pipeline,
            plan.writer_round,
            plan.lists.iter().map(Vec::len).collect::<Vec<_>>(),
            plan.round_len,
            plan.ops_fnv
        ),
        format!(
            "# host nproc={} commit={} (qps, p50_ms, p90_ms on the reference clock, see calib.rs; \
             raw= and everything else is wall-clock)",
            std::thread::available_parallelism().map_or(0, usize::from),
            git_commit()
        ),
        format!("# config {:?}", ServerConfig::default()),
    ];

    // The first set-up serves the workload, so that the peak memory read
    // during the window is that of a fresh process: load, serve. (Read at
    // the end of five set-ups it was whatever the allocator had made of the
    // four graphs already freed: 256 or 286 MB before a request was sent.)
    let set_up = || run::setup(cfg.scale, &plan).map_err(|e| e.to_string());
    let (inst, first) = set_up()?;
    let mut setups = vec![first];

    // A traced run gives half its window to the workload (every other burst
    // recording spans) and the rest to the ladder.
    let window = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut tr = Tracer::new();
    let info_before = run::fetch_info(inst.addr()).map_err(|e| e.to_string())?;
    let edges_before = inst.edge_count();
    let traffic = run::run_traffic(inst.addr(), &plan, &data, window, cfg.trace);
    let rss_after_window_mb = run::peak_rss_mb()?;
    // A writer grows the graph round by round and reads memory at a fixed one.
    let peak_rss_mb =
        traffic.writer.as_ref().and_then(|w| w.peak_rss_mb).unwrap_or(rss_after_window_mb);
    let info_after = run::fetch_info(inst.addr()).map_err(|e| e.to_string())?;
    let mut verdict = run::verify(&traffic, edges_before, inst.edge_count());
    inst.shutdown();
    let logs = reported(workload, &traffic);
    let s = Summary::of(&logs, &traffic.pace.reference()).ok_or("no request completed")?;
    let raw = Summary::of(&logs, &traffic.pace.wall_clock()).ok_or("no request completed")?;
    let n = s.samples();

    // The ladder of a traced run gets the second set-up, a served graph of
    // its own; the rest are only timed. `setup_s` is the median of them all.
    let ladder_inst = if cfg.trace {
        let (ladder_inst, time) = set_up()?;
        setups.push(time);
        Some(ladder_inst)
    } else {
        None
    };
    while setups.len() < SETUPS_PER_RUN {
        let (idle, time) = set_up()?;
        idle.shutdown();
        setups.push(time);
    }
    let setup_s = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let bulk_load_s = median(&setups.iter().map(|t| t.bulk_load_s).collect::<Vec<_>>());

    let mut metrics = Vec::new();
    if !cfg.trace {
        for m in &END_TO_END {
            let (value, note) = match m.name {
                "qps" => (s.qps, format!("n={n} rounds={} raw={}", s.rounds, raw.qps)),
                "p50_ms" => (s.p50_ms, format!("n={n} rounds={} raw={}", s.rounds, raw.p50_ms)),
                "p90_ms" => {
                    // Samples beyond the p90 of one round, which is what is reported.
                    let beyond = samples_beyond(n / s.rounds, 90.0);
                    let flag = if beyond < MIN_BEYOND { " (fewer than 10 beyond)" } else { "" };
                    let note = format!(
                        "n={n} rounds={} raw={} beyond={beyond}{flag} window_p90={} window_p99={}",
                        s.rounds,
                        raw.p90_ms,
                        s.pct(90.0),
                        s.pct(99.0)
                    );
                    (s.p90_ms, note)
                }
                "peak_rss_mb" => (
                    peak_rss_mb,
                    format!("VmHWM after two writer rounds or the window; after the window {rss_after_window_mb}"),
                ),
                "setup_s" => (setup_s, format!("median of {SETUPS_PER_RUN}")),
                other => return Err(format!("end-to-end metric `{other}` has no measurement")),
            };
            metrics.push(Metric { name: m.name, unit: m.unit, value, note });
        }
    } else {
        let ladder_inst = ladder_inst.expect("a traced run sets one up");
        let p50_of = |side: fn(&ConnLog) -> &Vec<f64>| {
            median(&logs.iter().flat_map(|l| side(l).iter().copied()).collect::<Vec<_>>())
        };
        let overhead_pct = (p50_of(|l| &l.traced_ms) / p50_of(|l| &l.plain_ms) - 1.0) * 100.0;
        for (c, log) in logs.iter().enumerate() {
            let Some(&(_, first, _)) = log.spans.first() else { continue };
            let last = log.spans.iter().map(|s| s.2).max().expect("non-empty");
            let conn = tr.add("tcp.connection", 0, c as u64, first, last);
            for &(op, sent, done) in &log.spans {
                tr.add("tcp.request", conn, op, sent, done);
            }
        }
        let mut m = Metrics::new();
        let lv =
            ladder::run(&ladder_inst, &data, &LadderOps::new(&data, cfg.seed), &mut tr, &mut m)
                .map_err(|e| e.to_string())?;
        verdict.add(lv);
        ladder_inst.shutdown();

        let delta = |key: &str| (info_after[key] - info_before[key]) as f64;
        let lookups = delta("plan_cache_hits") + delta("plan_cache_misses");
        m.insert("store.bulk_load_s", bulk_load_s);
        m.insert("server.plan_cache_hit_share", delta("plan_cache_hits") / lookups.max(1.0));
        m.insert("server.plan_cache_evictions", delta("plan_cache_evictions"));
        m.insert("server.snapshot_rebuilds", delta("snapshot_rebuilds"));
        m.insert("server.delta_flushes", delta("delta_flushes"));
        m.insert("server.queries_failed", delta("queries_failed"));
        let tail = supported_tail(n).unwrap_or(50.0);
        m.insert("client.qps", s.qps);
        m.insert("client.rows_per_s", s.rows_per_s);
        m.insert("client.p50_ms", s.p50_ms);
        m.insert("client.p99_ms", s.pct(99.0));
        m.insert("client.tail_pct", tail);
        m.insert("client.tail_ms", s.pct(tail));
        m.insert("client.samples", n as f64);
        m.insert("trace.overhead_pct", overhead_pct);
        for pl in &PER_LAYER {
            let value =
                *m.get(pl.name).ok_or_else(|| format!("per-layer metric `{}` missing", pl.name))?;
            let note = format!("{} is better", pl.better.as_str());
            metrics.push(Metric { name: pl.name, unit: pl.unit, value, note });
        }
        if let Some(path) = &cfg.trace_path {
            std::fs::write(path, tr.to_json(spec.name, cfg.seed)).map_err(|e| e.to_string())?;
        }
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric `{}` is not a number", m.name));
    }
    Ok(Report { header, metrics, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn smoke(workload: &'static WorkloadSpec, trace: bool) -> Report {
        let cfg = RunConfig {
            workload,
            seed: 11,
            seconds: 0.2,
            trace,
            scale: 8,
            writer_round: 50,
            trace_path: None,
        };
        let report = run_once(&cfg).expect("run");
        assert_eq!(report.verdict.failed, 0, "{}", workload.name);
        assert!(report.verdict.attempted > 0);
        report
    }

    /// Every workload end to end on a 256-vertex graph, oracle on.
    #[test]
    fn every_workload_runs_and_verifies_at_scale_8() {
        for w in &WORKLOADS {
            let report = smoke(w, false);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name);
            assert!(report.metrics.iter().all(|m| m.value > 0.0));
            assert!(report.json().starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    /// The ladder under a rounds workload and under the mixed one.
    #[test]
    fn traced_runs_emit_every_per_layer_metric() {
        for name in ["khop_k6", "mixed_rw_write"] {
            let report = smoke(crate::spec::workload(name).expect("known workload"), true);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name));
        }
    }
}
