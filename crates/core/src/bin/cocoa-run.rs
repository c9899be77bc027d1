//! `cocoa-run` — run one CoCoA scenario from the command line.
//!
//! ```sh
//! cargo run --release -p cocoa-core --bin cocoa-run -- \
//!     --robots 50 --equipped 25 --duration 1800 --period 100 --mode cocoa
//! ```
//!
//! Prints a markdown summary; `--csv PREFIX` additionally writes
//! `PREFIX-errors.csv`, `PREFIX-energy.csv` and `PREFIX-snapshots.csv`
//! for plotting.
//!
//! Failures exit with distinct codes (see the EXIT CODES section of
//! `--help`) so scripts and CI can react to *why* a run died, not just
//! that it died.

use std::sync::mpsc;
use std::time::Duration;

use cocoa_core::executor::supervisor::{run_guarded, CaughtPanic};
use cocoa_core::prelude::*;
use cocoa_core::report;
use cocoa_core::runner::SimRun;
use cocoa_localization::estimator::RfAlgorithm;
use cocoa_sim::snapshot::SnapshotError;
use cocoa_sim::time::{SimDuration, SimTime};

use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};

const USAGE: &str = "\
cocoa-run — simulate one CoCoA deployment

USAGE:
    cocoa-run [OPTIONS]

OPTIONS:
    --seed N            master seed                       [default: 42]
    --robots N          team size                         [default: 50]
    --equipped N        robots with localization devices  [default: 25]
    --duration SECS     simulated seconds                 [default: 1800]
    --period SECS       beacon period T                   [default: 100]
    --window SECS       transmit window t                 [default: 3]
    --beacons K         beacons per robot per window      [default: 3]
    --vmax M_PER_S      maximum robot speed               [default: 2.0]
    --vmin M_PER_S      minimum robot speed               [default: 0.1]
    --static            pin every robot in place (vmin = vmax = 0);
                        requires --multicast flood or odmrp
    --mode MODE         cocoa | rf-only | odometry        [default: cocoa]
    --multicast PROTO   SYNC transport: flood | odmrp | mrmm
                                                          [default: mrmm]
    --estimator ALGO    bayes | multilateration | ekf     [default: bayes]
    --algorithm ALGO    alias of --estimator
    --grid METRES       Bayesian grid resolution          [default: 2.0]
    --snapshot SECS     record a per-robot CDF snapshot (repeatable)
    --no-coordination   radios idle instead of sleeping
    --no-sync           disable the MRMM SYNC service
    --relay             localized robots also beacon (Section 6 extension)
    --faults NAME       inject a canned fault schedule:
                        none | sync-crash | burst30 | corrupt | chaos
    --snapshot-at SECS  serialize the full run state at this instant
                        (the run then continues to completion)
    --snapshot-out PATH where to write the --snapshot-at bytes
                        [default: cocoa-run.csnp]
    --resume PATH       restore a --snapshot-out file and run it to the
                        horizon; scenario flags are ignored (the snapshot
                        carries its own scenario)
    --deadline SECS     wall-clock limit for the simulation itself; a
                        hung run exits 6 instead of blocking forever
    --csv PREFIX        write PREFIX-{errors,energy,mesh,snapshots,robustness,health}.csv
    --telemetry LEVEL   off | counters | timeline | full    [default: off]
    --trace-out PATH    write a JSONL trace (implies --telemetry full);
                        inspect it with cocoa-trace
    --metrics-out PATH  write the final counters, histograms and span
                        totals in Prometheus text exposition format
                        (implies at least --telemetry counters)
    --sample-interval S per-robot timeline sample interval, seconds
                        [default: the metrics interval]
    -h, --help          print this help

With --telemetry at counters or above, --csv also writes
PREFIX-counters.csv and PREFIX-spans.csv; at timeline or above,
PREFIX-timeline.csv.

EXIT CODES:
    0   success
    2   usage error (unknown flag, missing or unparsable value)
    3   scenario validation failure (flags parsed, but the scenario
        they describe is inconsistent)
    4   runtime failure (simulation panic, unreadable input file,
        unwritable output file)
    5   snapshot corruption (--resume file failed CRC/schema checks)
    6   wall-clock deadline exceeded (--deadline)
";

/// Usage error (bad flags).
const EXIT_USAGE: i32 = 2;
/// The flags parsed but describe an invalid scenario.
const EXIT_VALIDATION: i32 = 3;
/// The run itself failed: panic, unreadable input, unwritable output.
const EXIT_RUNTIME: i32 = 4;
/// A snapshot failed its integrity checks.
const EXIT_SNAPSHOT: i32 = 5;
/// The wall-clock deadline fired.
const EXIT_DEADLINE: i32 = 6;

struct Args {
    scenario: Scenario,
    csv_prefix: Option<String>,
    telemetry_level: TelemetryLevel,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    sample_interval: Option<SimDuration>,
    snapshot_at: Option<SimTime>,
    snapshot_out: String,
    resume: Option<String>,
    deadline: Option<Duration>,
}

/// Why argument handling failed — bad flags exit differently from a
/// well-formed command line describing an impossible scenario.
enum ArgError {
    Usage(String),
    Validation(String),
}

/// Seconds as a clock duration, refusing negative values and durations
/// the microsecond clock cannot hold.
fn secs(flag: &str, s: f64) -> Result<SimDuration, ArgError> {
    SimDuration::checked_from_secs_f64(s).ok_or_else(|| {
        ArgError::Usage(format!(
            "{flag} must be a non-negative duration the clock can hold"
        ))
    })
}

fn parse_args() -> Result<Args, ArgError> {
    use ArgError::Usage;
    let mut b = Scenario::builder();
    let mut csv_prefix = None;
    let mut snapshots: Vec<SimTime> = Vec::new();
    let mut faults_preset: Option<String> = None;
    let mut telemetry_level = TelemetryLevel::Off;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut sample_interval = None;
    let mut snapshot_at = None;
    let mut snapshot_out = String::from("cocoa-run.csnp");
    let mut resume = None;
    let mut deadline = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, ArgError> {
            it.next()
                .ok_or_else(|| Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--seed" => {
                b.seed(
                    value("--seed")?
                        .parse()
                        .map_err(|e| Usage(format!("--seed: {e}")))?,
                );
            }
            "--robots" => {
                b.robots(
                    value("--robots")?
                        .parse()
                        .map_err(|e| Usage(format!("--robots: {e}")))?,
                );
            }
            "--equipped" => {
                b.equipped(
                    value("--equipped")?
                        .parse()
                        .map_err(|e| Usage(format!("--equipped: {e}")))?,
                );
            }
            "--duration" => {
                let s: u64 = value("--duration")?
                    .parse()
                    .map_err(|e| Usage(format!("--duration: {e}")))?;
                b.duration(secs("--duration", s as f64)?);
            }
            "--period" => {
                let s: u64 = value("--period")?
                    .parse()
                    .map_err(|e| Usage(format!("--period: {e}")))?;
                b.beacon_period(secs("--period", s as f64)?);
            }
            "--window" => {
                let s: u64 = value("--window")?
                    .parse()
                    .map_err(|e| Usage(format!("--window: {e}")))?;
                b.transmit_window(secs("--window", s as f64)?);
            }
            "--beacons" => {
                b.beacons_per_window(
                    value("--beacons")?
                        .parse()
                        .map_err(|e| Usage(format!("--beacons: {e}")))?,
                );
            }
            "--vmax" => {
                b.v_max(
                    value("--vmax")?
                        .parse()
                        .map_err(|e| Usage(format!("--vmax: {e}")))?,
                );
            }
            "--vmin" => {
                b.v_min(
                    value("--vmin")?
                        .parse()
                        .map_err(|e| Usage(format!("--vmin: {e}")))?,
                );
            }
            "--static" => {
                b.static_team();
            }
            "--multicast" => {
                let v = value("--multicast")?;
                let protocol = MulticastProtocol::parse(&v)
                    .ok_or_else(|| Usage(format!("unknown multicast protocol '{v}'")))?;
                b.multicast(protocol);
            }
            "--mode" => match value("--mode")?.as_str() {
                "cocoa" => {
                    b.mode(EstimatorMode::Cocoa);
                }
                "rf-only" => {
                    b.mode(EstimatorMode::RfOnly);
                }
                "odometry" => {
                    b.mode(EstimatorMode::OdometryOnly);
                }
                other => return Err(Usage(format!("unknown mode '{other}'"))),
            },
            "--estimator" | "--algorithm" => match value(&flag)?.as_str() {
                "bayes" => {
                    b.rf_algorithm(RfAlgorithm::Bayes);
                }
                "multilateration" => {
                    b.rf_algorithm(RfAlgorithm::Multilateration);
                }
                "ekf" => {
                    b.rf_algorithm(RfAlgorithm::Ekf);
                }
                other => return Err(Usage(format!("unknown estimator '{other}'"))),
            },
            "--grid" => {
                b.grid_resolution(
                    value("--grid")?
                        .parse()
                        .map_err(|e| Usage(format!("--grid: {e}")))?,
                );
            }
            "--snapshot" => {
                let s: f64 = value("--snapshot")?
                    .parse()
                    .map_err(|e| Usage(format!("--snapshot: {e}")))?;
                snapshots.push(SimTime::ZERO + secs("--snapshot", s)?);
            }
            "--no-coordination" => {
                b.coordination(false);
            }
            "--no-sync" => {
                b.sync_enabled(false);
            }
            "--relay" => {
                b.relay_beaconing(true);
            }
            "--faults" => faults_preset = Some(value("--faults")?),
            "--snapshot-at" => {
                let s: f64 = value("--snapshot-at")?
                    .parse()
                    .map_err(|e| Usage(format!("--snapshot-at: {e}")))?;
                snapshot_at = Some(SimTime::ZERO + secs("--snapshot-at", s)?);
            }
            "--snapshot-out" => snapshot_out = value("--snapshot-out")?,
            "--resume" => resume = Some(value("--resume")?),
            "--deadline" => {
                let s: f64 = value("--deadline")?
                    .parse()
                    .map_err(|e| Usage(format!("--deadline: {e}")))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(Usage("--deadline must be positive".into()));
                }
                deadline = Some(
                    Duration::try_from_secs_f64(s)
                        .map_err(|e| Usage(format!("--deadline: {e}")))?,
                );
            }
            "--csv" => csv_prefix = Some(value("--csv")?),
            "--telemetry" => {
                let v = value("--telemetry")?;
                telemetry_level = TelemetryLevel::parse(&v)
                    .ok_or_else(|| Usage(format!("unknown telemetry level '{v}'")))?;
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--sample-interval" => {
                let s: f64 = value("--sample-interval")?
                    .parse()
                    .map_err(|e| Usage(format!("--sample-interval: {e}")))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(Usage("--sample-interval must be positive".into()));
                }
                sample_interval = Some(secs("--sample-interval", s)?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(Usage(format!("unknown flag '{other}' (try --help)"))),
        }
    }
    if !snapshots.is_empty() {
        b.snapshots(snapshots);
    }
    let mut scenario = b.try_build().map_err(ArgError::Validation)?;
    if let Some(name) = faults_preset {
        // The preset needs the final duration/team size, so it is resolved
        // after every other flag has been applied.
        let plan =
            FaultPlan::preset(&name, scenario.duration, scenario.num_robots).ok_or_else(|| {
                Usage(format!(
                    "unknown fault schedule '{name}' (available: {})",
                    cocoa_sim::faults::PRESET_NAMES.join(", ")
                ))
            })?;
        scenario.faults = plan;
        scenario.validate().map_err(ArgError::Validation)?;
    }
    if trace_out.is_some() {
        // A trace file is only useful with the complete event stream.
        telemetry_level = TelemetryLevel::Full;
    }
    if metrics_out.is_some() && telemetry_level < TelemetryLevel::Counters {
        // Exposition output needs at least the counter registry.
        telemetry_level = TelemetryLevel::Counters;
    }
    Ok(Args {
        scenario,
        csv_prefix,
        telemetry_level,
        trace_out,
        metrics_out,
        sample_interval,
        snapshot_at,
        snapshot_out,
        resume,
        deadline,
    })
}

/// What the simulation job produces: the effective scenario, the run
/// outputs, and the captured `--snapshot-at` bytes (written by the
/// caller, outside the panic/deadline boundary).
type JobOutput = Result<(Scenario, RunMetrics, Telemetry, Option<Vec<u8>>), SnapshotError>;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(ArgError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return EXIT_USAGE;
        }
        Err(ArgError::Validation(e)) => {
            eprintln!("error: invalid scenario: {e}");
            return EXIT_VALIDATION;
        }
    };
    let start = std::time::Instant::now();
    let mut telemetry = Telemetry::new(args.telemetry_level);
    if let Some(interval) = args.sample_interval {
        telemetry.set_sample_interval(interval);
    }

    // File reads happen before the supervised section so io failures are
    // classified as runtime errors, not snapshot corruption.
    let resume_input = match &args.resume {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => Some((path.clone(), bytes)),
            Err(e) => {
                eprintln!("error: cannot read snapshot {path}: {e}");
                return EXIT_RUNTIME;
            }
        },
        None => None,
    };

    // The simulation itself runs inside the hardened panic boundary —
    // and, under --deadline, on a watchdog-guarded thread.
    let resume_path = resume_input.as_ref().map(|(p, _)| p.clone());
    let scenario_in = args.scenario.clone();
    let snapshot_at = args.snapshot_at;
    let job = move || -> JobOutput {
        if let Some((path, bytes)) = resume_input {
            // The snapshot carries the scenario and telemetry bus; CLI
            // scenario/telemetry flags only describe *new* runs.
            let run = SimRun::resume_marked(&bytes)?;
            eprintln!("resumed {path} at t = {}", run.now());
            let scenario = run.scenario().clone();
            let (metrics, telemetry) = run.finish();
            Ok((scenario, metrics, telemetry, None))
        } else {
            let mut run = SimRun::new(&scenario_in, telemetry);
            let snapshot = snapshot_at.map(|at| {
                run.run_until(at);
                let bytes = run.capture();
                eprintln!("captured {} bytes at t = {}", bytes.len(), run.now());
                bytes
            });
            let (metrics, telemetry) = run.finish();
            Ok((scenario_in, metrics, telemetry, snapshot))
        }
    };
    let outcome: Result<JobOutput, CaughtPanic> = match args.deadline {
        None => run_guarded(job),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let spawned = std::thread::Builder::new()
                .name("cocoa-run-job".into())
                .spawn(move || {
                    let _ = tx.send(run_guarded(job));
                });
            if let Err(e) = spawned {
                eprintln!("error: cannot spawn the run thread: {e}");
                return EXIT_RUNTIME;
            }
            match rx.recv_timeout(limit) {
                Ok(out) => out,
                Err(_) => {
                    eprintln!(
                        "error: run exceeded the {:.1} s wall-clock deadline",
                        limit.as_secs_f64()
                    );
                    return EXIT_DEADLINE;
                }
            }
        }
    };
    let (scenario, metrics, telemetry, snapshot_bytes) = match outcome {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => {
            let path = resume_path.as_deref().unwrap_or("<snapshot>");
            eprintln!("error: cannot restore snapshot {path}: {e}");
            return EXIT_SNAPSHOT;
        }
        Err(p) => {
            eprintln!("error: run panicked: {}", p.payload);
            if let Some(bt) = p.backtrace {
                eprintln!("{bt}");
            }
            return EXIT_RUNTIME;
        }
    };
    if let Some(bytes) = snapshot_bytes {
        match std::fs::write(&args.snapshot_out, &bytes) {
            Ok(()) => eprintln!("wrote {} ({} bytes)", args.snapshot_out, bytes.len()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", args.snapshot_out);
                return EXIT_RUNTIME;
            }
        }
    }
    print!("{}", report::markdown_summary(&scenario, &metrics));
    eprintln!("\n(wall time {:.1} s)", start.elapsed().as_secs_f64());
    if let Some(path) = &args.trace_out {
        match std::fs::write(path, telemetry.to_jsonl(true)) {
            Ok(()) => eprintln!(
                "wrote {path} ({} events, {} dropped)",
                telemetry.events_emitted(),
                telemetry.dropped_events()
            ),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = &args.metrics_out {
        use cocoa_sim::telemetry::export::MetricsSnapshot;
        let text = MetricsSnapshot::from_telemetry(&telemetry).to_exposition();
        // Atomic tmp+rename so a reader never observes a half-written file.
        let tmp = format!("{path}.tmp");
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
        match result {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return EXIT_RUNTIME;
            }
        }
    }
    if let Some(prefix) = args.csv_prefix {
        let write = |suffix: &str, body: String| {
            let path = format!("{prefix}-{suffix}.csv");
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        };
        write("errors", report::error_series_csv(&metrics));
        write("energy", report::energy_csv(&metrics));
        write("mesh", report::mesh_csv(&scenario, &metrics));
        if !metrics.snapshots.is_empty() {
            write("snapshots", report::snapshots_csv(&metrics));
        }
        if !scenario.faults.is_empty() {
            write("robustness", report::robustness_csv(&metrics));
            write("health", report::health_csv(&metrics));
        }
        if telemetry.level() >= cocoa_sim::telemetry::TelemetryLevel::Counters {
            write("counters", report::telemetry_counters_csv(&telemetry));
            write("spans", report::telemetry_spans_csv(&telemetry));
        }
        if telemetry.level() >= cocoa_sim::telemetry::TelemetryLevel::Timeline {
            write("timeline", report::timeline_csv(&telemetry));
        }
    }
    0
}
