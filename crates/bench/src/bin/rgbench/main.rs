//! `rgbench` — the standing benchmark. See README.md beside this package's
//! manifest for the metric table and the reasons behind each workload.
//!
//! ```text
//! rgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! rgbench [--seed <n>] [--seconds <s>] [--trace <0|1>]               every workload once
//! rgbench --agree [sets] [--seconds <s>]                             do sets of ten runs agree?
//! ```
//!
//! A run prints a fingerprint of its inputs, every metric by name with its
//! unit, and as the last line of stdout one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

mod bench;
mod calib;
mod ladder;
mod ops;
mod run;
mod spec;
mod stats;
mod trace;

use bench::{run_once, RunConfig};
use spec::{Better, END_TO_END, RUN_SECONDS, SCALE, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: rgbench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] | --agree [sets] [--seconds <s>]";

/// Where a traced run leaves its spans, relative to the working directory.
const TRACE_FILE: &str = "rgbench-trace.json";

/// Runs per workload in one `--agree` set, seeds 1 to this: the ten the
/// driver takes its quartiles over.
const AGREE_RUNS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        agree: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--agree" => {
                let sets = it.next_if(|s| !s.starts_with("--"));
                args.agree = Some(match sets {
                    Some(s) => s.parse().map_err(|_| "bad --agree set count")?,
                    None => 2,
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; known: {}", known.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.agree) {
        (_, Some(sets)) => agree(&args, sets),
        (Some(name), None) => single(&args, name),
        (None, None) => every_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rgbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One run in this process; `Ok(false)` when a reply was wrong.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let report = run_once(&RunConfig {
        workload: spec::workload(name).expect("checked by parse_args"),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: SCALE,
        writer_round: ops::WRITER_ROUND,
        trace_path: args.trace.then(|| TRACE_FILE.into()),
    })?;
    for line in &report.header {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    println!("verdict attempted={} failed={}", report.verdict.attempted, report.verdict.failed);
    println!("{}", report.json());
    Ok(report.verdict.failed == 0)
}

/// What a child run printed: metric values by name, and its failure count.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    failed: u64,
    stdout: String,
}

/// Run one workload in a process of its own, as the driver does, so peak
/// memory and allocator state never carry over between runs.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut run = ChildRun { metrics: BTreeMap::new(), failed: 0, stdout };
    let mut verdict_seen = false;
    for line in run.stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(value))) = (words.next(), words.next().map(str::parse))
                {
                    run.metrics.insert(name.to_string(), value);
                }
            }
            Some("verdict") => {
                verdict_seen = true;
                run.failed = words
                    .find_map(|w| w.strip_prefix("failed=")?.parse().ok())
                    .ok_or("child printed no failure count")?;
            }
            _ => {}
        }
    }
    if !verdict_seen {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("run of {name} (seed {seed}) gave no result: {}", stderr.trim()));
    }
    Ok(run)
}

/// Every workload once, each in its own process.
fn every_workload(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let run = child(w.name, args.seed, args.seconds, args.trace)?;
        print!("{}", run.stdout);
        ok &= run.failed == 0;
    }
    Ok(ok)
}

/// `sets` sets of [`AGREE_RUNS`] runs per workload. Per metric
/// and workload: each set's median and interquartile spread, and how much
/// worse the last set's median is than the first's, against the metric's
/// bound. A pairing whose spread or worsening exceeds the bound is
/// `unresolved`: a later change could not be judged on it.
fn agree(args: &Args, sets: usize) -> Result<bool, String> {
    let sets = sets.max(1);
    let mut samples: BTreeMap<(usize, usize, &str), Vec<f64>> = BTreeMap::new();
    let mut failed = 0u64;
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for seed in 1..=AGREE_RUNS {
                let run = child(workload.name, seed, args.seconds, false)?;
                failed += run.failed;
                for m in &END_TO_END {
                    let value = run.metrics.get(m.name).ok_or(format!("no {}", m.name))?;
                    samples.entry((set, w, m.name)).or_default().push(*value);
                }
                // Every run made, on stderr: its metric lines as it printed them.
                for line in run.stdout.lines().filter(|l| l.starts_with("metric ")) {
                    eprintln!(
                        "set {} {} seed {seed} failed={} {line}",
                        set + 1,
                        workload.name,
                        run.failed
                    );
                }
            }
        }
    }
    println!(
        "{:<16} {:<12} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median[1]", "spread", "median[N]", "spread", "worsening", "bound"
    );
    let mut unresolved = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let first = &samples[&(0, w, m.name)];
            let last = &samples[&(sets - 1, w, m.name)];
            let (m1, m2) = (stats::median(first), stats::median(last));
            let (s1, s2) = (stats::relative_spread(first), stats::relative_spread(last));
            let worse = stats::worsening(m1, m2, m.better == Better::Lower);
            // The driver does not hold set-up time's spread against it.
            let spread_counts = m.name != "setup_s";
            let ok = worse <= m.bound && (!spread_counts || s1.max(s2) <= m.bound);
            unresolved += usize::from(!ok);
            println!(
                "{:<16} {:<12} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>8.1}% {:>5.0}%  {}",
                workload.name,
                m.name,
                m1,
                s1 * 100.0,
                m2,
                s2 * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "unresolved" }
            );
        }
    }
    println!("unresolved={unresolved} failed_ops={failed} sets={sets} runs_per_set={AGREE_RUNS}");
    Ok(unresolved == 0 && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    fn well_formed(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let distinct: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128);
        // 4 + 22 runs per workload, two builds, all inside the driver's cap.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `UPDATE_BENCHMARK_JSON=1 cargo test -p redisgraph-bench --bin rgbench`
    /// rewrites the file from `spec.rs`, as `UPDATE_GOLDEN=1` does the parser
    /// snapshots.
    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        // The manifest is `crates/bench`'s in the workspace build and this
        // directory's own in the stand-alone one; the file is at the root.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|path| path.exists())
            .expect("BENCHMARK.json at the repository root, above the manifest");
        if std::env::var_os("UPDATE_BENCHMARK_JSON").is_some() {
            std::fs::write(&path, spec::benchmark_json()).expect("write BENCHMARK.json");
        }
        let committed = std::fs::read_to_string(&path).expect("readable");
        assert_eq!(committed, spec::benchmark_json());
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload khop_k6 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("khop_k6"), 7, 10.0, true)
        );
        assert_eq!(parse_args(&argv("--agree")).unwrap().agree, Some(2));
        assert_eq!(parse_args(&argv("--agree 3 --seconds 2")).unwrap().agree, Some(3));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }
}
