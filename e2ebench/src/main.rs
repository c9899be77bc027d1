//! End-to-end and per-layer benchmark of the CoCoA reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_run --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `paper_run`, `period_sweep`, `serve_mix` (see
//! `e2ebench/README.md`). `--trace 0` measures the end-to-end metrics
//! untraced for `--seconds`; `--trace 1` makes one untraced and one
//! traced pass and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits non-zero when any output check failed.

mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};

use spec::Size;
use workloads::{Checks, Ctx, Metrics};

/// The seed used while the benchmark and changes are written.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("robot_s_per_s", "robot_s/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("mean_error_m", "m"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("calibration.build_s", "s"),
    ("calibration.build_share", "share"),
    ("world.new_s", "s"),
    ("world.new_share", "share"),
    ("world.window_s", "s"),
    ("world.window_share", "share"),
    ("world.between_windows_s", "s"),
    ("world.between_windows_share", "share"),
    ("world.finish_s", "s"),
    ("world.finish_share", "share"),
    ("world.events", "count"),
    ("world.events_per_s", "1/s"),
    ("world.windows", "count"),
    ("localization.grid_update_us", "us"),
    ("localization.entropy_us", "us"),
    ("localization.beacons_received", "count"),
    ("localization.fixes", "count"),
    ("localization.entropy_calls", "count"),
    ("localization.grid_est_s", "s"),
    ("localization.grid_est_share", "share"),
    ("localization.entropy_est_s", "s"),
    ("localization.entropy_est_share", "share"),
    ("net.beacons_sent", "count"),
    ("net.reception_losses", "count"),
    ("mesh.control_packets", "count"),
    ("mesh.forwarded", "count"),
    ("mesh.duplicates", "count"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.capture_share", "share"),
    ("checkpoint.resume_s", "s"),
    ("checkpoint.resume_share", "share"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.fork_s", "s"),
    ("checkpoint.fork_share", "share"),
    ("executor.point_s_p50", "s"),
    ("executor.point_s_max", "s"),
    ("executor.busy_share", "share"),
    ("executor.workers", "count"),
    ("executor.checkpoints_written", "count"),
    ("executor.manifest_bytes", "bytes"),
    ("serve.first_line_s_p50_miss", "s"),
    ("serve.first_line_s_p90_miss", "s"),
    ("serve.first_line_s_p50_warm", "s"),
    ("serve.first_line_s_p90_warm", "s"),
    ("serve.first_line_s_p50_hit", "s"),
    ("serve.first_line_s_p90_hit", "s"),
    ("serve.first_line_s_p50_join", "s"),
    ("serve.first_line_s_p90_join", "s"),
    ("serve.stream_s", "s"),
    ("serve.requests", "count"),
    ("serve.hits", "count"),
    ("serve.joins", "count"),
    ("serve.misses", "count"),
    ("serve.warm_forks", "count"),
    ("serve.hit_share", "share"),
    ("serve.state_bytes", "bytes"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: [&str; 3] = ["paper_run", "period_sweep", "serve_mix"];

/// Where runs keep scratch state and write their span logs, relative to
/// the directory the benchmark is started from.
const OUT_DIR: &str = ".e2ebench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The outcome of one invocation.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// The result line: every metric of the run's set, by name, with its
    /// unit. A metric that is missing or not finite is a failed check.
    pub fn json(&mut self, trace: bool) -> String {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let value = if self.checks.check(value.is_finite(), || {
                format!("metric {name} is missing or not finite")
            }) {
                value
            } else {
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            fields.join(", ")
        )
    }
}

/// Runs one workload; the span log of a traced run is written to
/// `out_dir` when it has finished.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out_dir: &Path,
) -> Outcome {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let work_dir = out_dir.join(format!(
        "{workload}-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut checks = Checks::default();
    let _ = std::fs::remove_dir_all(&work_dir);
    let created =
        std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()));
    let mut metrics = Metrics::new();
    if checks.ok(created).is_some() {
        let ctx = Ctx::new(seed, seconds, size, work_dir.clone());
        if trace {
            let traced = match workload {
                "paper_run" => workloads::paper_traced(&ctx, &mut checks),
                "period_sweep" => workloads::sweep_traced(&ctx, &mut checks),
                _ => workloads::serve_traced(&ctx, &mut checks),
            };
            if let Some((m, tracer)) = traced {
                let log = out_dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
                checks.ok(tracer
                    .write_jsonl(&log)
                    .map_err(|e| format!("{}: {e}", log.display())));
                metrics = m;
            }
        } else {
            metrics = match workload {
                "paper_run" => workloads::paper_measure(&ctx, &mut checks),
                "period_sweep" => workloads::sweep_measure(&ctx, &mut checks),
                _ => workloads::serve_measure(&ctx, &mut checks),
            }
            .unwrap_or_default();
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    Outcome { checks, metrics }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        &PathBuf::from(OUT_DIR),
    );
    let line = outcome.json(args.trace);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{} seed {}:", args.workload, args.seed);
    for &(name, unit) in names {
        if let Some(v) = outcome.metrics.get(name) {
            println!("  {name:<34} {v:>14.6} {unit}");
        }
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn counts(m: &Metrics) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(_, unit)| matches!(*unit, "count" | "bytes"))
            .map(|&(name, _)| (name, m[name]))
            .collect()
    }

    #[test]
    fn metric_names_and_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {unit}"
            );
        }
    }

    /// The metric lists and workloads here are the ones the repository's
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let declared = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(declared(name, unit), "{name} ({unit}) not declared");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "{w} not declared"
            );
        }
        let entries = text.matches("\"unit\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "extra declared metrics"
        );
    }

    /// Every workload at the tiny size, traced, twice: all checks pass,
    /// every per-layer metric is present, and every count repeats.
    #[test]
    fn tiny_traced_runs_repeat_their_counts() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(OUT_DIR);
        for w in WORKLOADS {
            let mut a = run(w, 7, 0.0, true, Size::Tiny, &out);
            let mut b = run(w, 7, 0.0, true, Size::Tiny, &out);
            for o in [&mut a, &mut b] {
                let line = o.json(true);
                assert!(o.correct(), "{w}: {line}");
            }
            assert_eq!(counts(&a.metrics), counts(&b.metrics), "{w}: counts differ");
        }
    }

    #[test]
    fn tiny_untraced_runs_report_every_end_to_end_metric() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(OUT_DIR);
        for w in WORKLOADS {
            let mut o = run(w, 7, 0.0, false, Size::Tiny, &out);
            let line = o.json(false);
            assert!(o.correct(), "{w}: {line}");
            for (name, _) in END_TO_END {
                assert!(o.metrics[name] > 0.0, "{w}: {name} is not positive");
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload paper_run --seed 3 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_mix --trace 2").is_err());
        assert!(parse("--workload serve_mix --seed").is_err());
    }
}
