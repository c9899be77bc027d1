//! Calls into each layer's public entry points, shared by the three
//! workloads: timed sweeps and serve requests for the measured bodies,
//! and the per-layer probes of the traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use cocoa_core::executor::supervisor::{JobEvent, SweepReport};
use cocoa_core::metrics::RunMetrics;
use cocoa_core::prelude::{run_supervised, Scenario, SweepConfig};
use cocoa_core::runner::{SimRun, WarmArtifacts};
use cocoa_core::serve::client::{self, ClientResponse};
use cocoa_core::serve::{ServeConfig, Server};
use cocoa_localization::bayes::radial_constraints_for_grid;
use cocoa_localization::estimator::WindowedRfEstimator;
use cocoa_localization::grid::{GridConfig, PositionGrid};
use cocoa_net::calibration::{calibrate, CalibrationConfig, PdfTable, RadialConstraintTable};
use cocoa_net::channel::RfChannel;
use cocoa_net::geometry::Point;
use cocoa_net::rssi::Dbm;
use cocoa_sim::dist::uniform;
use cocoa_sim::rng::SeedSplitter;
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::stats;
use crate::trace::Tracer;

/// A telemetry bus at `level`, built the way `cocoa-run` builds it.
pub fn telemetry(level: TelemetryLevel) -> Telemetry {
    match level {
        TelemetryLevel::Off => Telemetry::off(),
        other => Telemetry::new(other),
    }
}

// ---------------------------------------------------------------------------
// calibration

/// The set-up step every run pays before its first event: the RF
/// calibration table and the radial constraint cache for the scenario's
/// grid, built exactly as `SimRun::new` builds them.
pub fn build_calibration(s: &Scenario) -> (PdfTable, RadialConstraintTable) {
    let channel = RfChannel::new(s.channel);
    let table = calibrate(
        &channel,
        &CalibrationConfig::default(),
        &mut SeedSplitter::new(s.seed).stream("calibration", 0),
    );
    let radial = radial_constraints_for_grid(&table, &GridConfig::new(s.area, s.grid_resolution_m));
    (table, radial)
}

// ---------------------------------------------------------------------------
// localization

/// Replayed per-call costs of the two grid kernels a run spends its time
/// in, on the scenario's grid (100 × 100 cells at the paper's defaults).
pub struct KernelCosts {
    /// `PositionGrid::apply_radial_constraint` (the default SIMD f64
    /// kernel), microseconds per beacon.
    pub grid_update_us: f64,
    /// `WindowedRfEstimator::entropy_fraction`, microseconds per call.
    pub entropy_us: f64,
}

const REPLAY_CALLS: usize = 64;
const REPLAY_BATCHES: usize = 15;

/// The entropy scan is timed on a posterior built from `window_beacons`
/// beacons, the runs' mean per window: its cost depends on how many
/// cells have underflowed to zero.
pub fn replay_kernels(
    s: &Scenario,
    table: &PdfTable,
    radial: &RadialConstraintTable,
    window_beacons: usize,
) -> KernelCosts {
    let channel = RfChannel::new(s.channel);
    let grid_cfg = GridConfig::new(s.area, s.grid_resolution_m);
    let mut rng = SeedSplitter::new(s.seed).stream("e2ebench.replay", 0);
    let area = s.area;
    let robot = Point::new(
        uniform(area.x_min, area.x_max, &mut rng),
        uniform(area.y_min, area.y_max, &mut rng),
    );
    // Beacons the robot could really hear: detectable, with a profile.
    let mut beacons: Vec<(Point, Dbm)> = Vec::with_capacity(REPLAY_CALLS);
    while beacons.len() < REPLAY_CALLS {
        let b = Point::new(
            uniform(area.x_min, area.x_max, &mut rng),
            uniform(area.y_min, area.y_max, &mut rng),
        );
        let rssi = channel.sample_rssi(robot.distance_to(b), &mut rng);
        if channel.is_detectable(rssi) && radial.lookup(rssi).is_some() {
            beacons.push((b, rssi));
        }
    }

    let mut grid = PositionGrid::new(grid_cfg);
    let mut per_call = Vec::with_capacity(REPLAY_BATCHES);
    for _ in 0..REPLAY_BATCHES {
        grid.reset_uniform();
        let t = Instant::now();
        for &(b, rssi) in &beacons {
            let profile = radial.lookup(rssi).expect("filtered above");
            black_box(grid.apply_radial_constraint(black_box(b), profile));
        }
        per_call.push(t.elapsed().as_secs_f64() / REPLAY_CALLS as f64);
    }
    let grid_update_us = stats::median(&per_call) * 1e6;

    let mut est = WindowedRfEstimator::with_pipeline(grid_cfg, s.rf_algorithm, s.grid_pipeline);
    est.begin_window();
    for &(b, rssi) in beacons.iter().cycle().take(window_beacons) {
        est.observe_beacon_radial(table, radial, b, rssi);
    }
    est.end_window();
    per_call.clear();
    for _ in 0..REPLAY_BATCHES {
        let t = Instant::now();
        for _ in 0..REPLAY_CALLS {
            black_box(black_box(&est).entropy_fraction());
        }
        per_call.push(t.elapsed().as_secs_f64() / REPLAY_CALLS as f64);
    }
    KernelCosts {
        grid_update_us,
        entropy_us: stats::median(&per_call) * 1e6,
    }
}

/// `entropy_fraction` calls a run makes: one per metrics tick for every
/// live robot that carries an RF estimator (computed from the scenario;
/// no robot dies in these workloads).
pub fn entropy_calls(s: &Scenario) -> u64 {
    let ticks = s.duration.as_micros() / s.metrics_interval.as_micros();
    let estimators = if s.mode.uses_rf() {
        s.num_robots - s.num_equipped
    } else {
        0
    };
    ticks * estimators as u64
}

// ---------------------------------------------------------------------------
// world

/// A run replayed through `SimRun::run_until` in chunks: each transmit
/// window `[kT, kT + window + guard]` is one `world.window` span, the
/// time up to the next window start one `world.between_windows` span.
pub struct Replay {
    pub metrics: RunMetrics,
    /// Capture taken at the middle window boundary, if asked for.
    pub snapshot: Option<Vec<u8>>,
}

pub fn replay_chunked(
    tr: &Tracer,
    parent: u64,
    request: u64,
    s: &Scenario,
    level: TelemetryLevel,
    capture_mid: bool,
) -> Replay {
    let mut run = tr.span("world.new", parent, request, |_| {
        SimRun::new(s, telemetry(level))
    });
    let horizon = SimTime::ZERO + s.duration;
    let open = s.transmit_window + s.guard_band;
    let mid = s.num_windows() / 2;
    let mut snapshot = None;
    let mut k = 0u64;
    loop {
        let start = SimTime::ZERO + s.beacon_period * k;
        if start >= horizon {
            break;
        }
        if k > 0 {
            let before = start - SimDuration::from_micros(1);
            tr.span("world.between_windows", parent, request, |_| {
                run.run_until(before)
            });
        }
        if capture_mid && k == mid {
            snapshot = Some(tr.span("checkpoint.capture", parent, request, |_| run.capture()));
        }
        let end = (start + open).min(horizon);
        tr.span("world.window", parent, request, |_| run.run_until(end));
        k += 1;
    }
    tr.span("world.between_windows", parent, request, |_| {
        run.run_until(horizon)
    });
    let (metrics, _) = tr.span("world.finish", parent, request, |_| run.finish());
    Replay { metrics, snapshot }
}

/// Resumes `snapshot` and runs it to the end.
pub fn resume_finish(
    tr: &Tracer,
    parent: u64,
    request: u64,
    snapshot: &[u8],
) -> Result<RunMetrics, String> {
    let run = tr
        .span("checkpoint.resume", parent, request, |_| {
            SimRun::resume(snapshot)
        })
        .map_err(|e| format!("resume failed: {e}"))?;
    Ok(tr.span("checkpoint.resume_finish", parent, request, |_| {
        run.finish().0
    }))
}

/// `WarmArtifacts::build` + `fork`: the warm-start path sweeps and the
/// server's warm tier take instead of a cold `SimRun::new`.
pub fn fork_probe(tr: &Tracer, parent: u64, s: &Scenario) -> Result<(), String> {
    tr.span("checkpoint.fork", parent, 0, |_| {
        let artifacts = WarmArtifacts::build(s);
        artifacts.fork(s, Telemetry::off()).map(drop)
    })
    .map_err(|e| format!("warm fork failed: {e}"))
}

// ---------------------------------------------------------------------------
// executor

/// One supervised sweep, with every point's attempt timed through
/// `SweepConfig::observer`. The manifest is written at `manifest`, which
/// must not exist yet, and removed once its size is read.
pub struct SweepRun {
    pub report: SweepReport<RunMetrics>,
    /// Per point, in input order: Started → Completed, seconds.
    pub point_s: Vec<f64>,
    pub wall_s: f64,
    pub manifest_bytes: u64,
}

pub fn run_sweep(
    scenarios: Vec<Scenario>,
    manifest: &Path,
    inflight: SimDuration,
    tracer: Option<(&Arc<Tracer>, u64)>,
) -> Result<SweepRun, String> {
    if manifest.exists() {
        return Err(format!(
            "{} exists: the sweep would resume",
            manifest.display()
        ));
    }
    let n = scenarios.len();
    let starts: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; n]));
    let times: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; n]));
    let observer = {
        let starts = Arc::clone(&starts);
        let times = Arc::clone(&times);
        let tracer = tracer.map(|(t, parent)| (Arc::clone(t), parent));
        Arc::new(move |event: JobEvent| match event {
            JobEvent::Started { index, .. } => {
                starts.lock().expect("observer lock")[index] = Some(Instant::now());
            }
            JobEvent::Completed { index, .. } => {
                let end = Instant::now();
                let Some(start) = starts.lock().expect("observer lock")[index] else {
                    return;
                };
                times.lock().expect("observer lock")[index] = (end - start).as_secs_f64();
                if let Some((tr, parent)) = &tracer {
                    tr.record("executor.point", *parent, index as u64, start, end);
                }
            }
            _ => {}
        })
    };
    let cfg = SweepConfig {
        manifest_path: Some(manifest.to_path_buf()),
        inflight_interval: Some(inflight),
        observer: Some(observer),
        ..SweepConfig::default()
    };
    let t = Instant::now();
    let report = run_supervised(scenarios, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let manifest_bytes = std::fs::metadata(manifest).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(manifest);
    let point_s = times.lock().expect("observer lock").clone();
    Ok(SweepRun {
        report,
        point_s,
        wall_s,
        manifest_bytes,
    })
}

// ---------------------------------------------------------------------------
// serve

pub fn start_server(state_dir: &Path) -> Result<Server, String> {
    if state_dir.exists() {
        return Err(format!(
            "{} exists: the server would restore cached results",
            state_dir.display()
        ));
    }
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_jobs: 2,
        job_deadline: None,
        state_dir: Some(state_dir.to_path_buf()),
        quiet: true,
    })
}

/// Timestamps the first body line `request_tailed` relays.
struct FirstLine(Option<Instant>);

impl Write for FirstLine {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.get_or_insert_with(Instant::now);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered `POST /v1/runs`.
pub struct Sent {
    pub response: ClientResponse,
    pub start: Instant,
    pub first_line: Instant,
    pub end: Instant,
}

impl Sent {
    pub fn latency_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn first_line_s(&self) -> f64 {
        (self.first_line - self.start).as_secs_f64()
    }

    pub fn stream_s(&self) -> f64 {
        (self.end - self.first_line).as_secs_f64()
    }

    pub fn cache(&self) -> &str {
        self.response.cache_status().unwrap_or("")
    }
}

pub fn send(addr: &str, spec: &str) -> Result<Sent, String> {
    let mut tail = FirstLine(None);
    let start = Instant::now();
    let response =
        client::request_tailed(addr, "POST", "/v1/runs", spec.as_bytes(), Some(&mut tail))?;
    let end = Instant::now();
    Ok(Sent {
        response,
        start,
        first_line: tail.0.unwrap_or(end),
        end,
    })
}

/// Records a served request as a `serve.request` span with its
/// `serve.first_line` and `serve.stream` children.
pub fn trace_sent(tr: &Tracer, parent: u64, request: u64, sent: &Sent) {
    let id = tr.id();
    tr.record("serve.first_line", id, request, sent.start, sent.first_line);
    tr.record("serve.stream", id, request, sent.first_line, sent.end);
    tr.record_as(id, "serve.request", parent, request, sent.start, sent.end);
}

/// Sends `rounds` from two closed-loop client threads in lockstep: in
/// each round client `c` sends `rounds[r][c]` and waits for its reply,
/// and no round starts before both replies of the previous one are in.
/// Results come back in `(round, client)` order.
pub fn lockstep(addr: &str, rounds: &[[&str; 2]]) -> Vec<Result<Sent, String>> {
    let barrier = Barrier::new(2);
    let slots: Vec<Mutex<Option<Result<Sent, String>>>> =
        (0..rounds.len() * 2).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for client in 0..2 {
            let (barrier, slots) = (&barrier, &slots);
            scope.spawn(move || {
                for (r, round) in rounds.iter().enumerate() {
                    barrier.wait();
                    let sent = send(addr, round[client]);
                    *slots[r * 2 + client].lock().expect("slot lock") = Some(sent);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every client filled its slots")
        })
        .collect()
}

/// Per-tier first-line latencies and stream times of served requests.
#[derive(Default)]
pub struct TierTimes {
    pub first_line: BTreeMap<&'static str, Vec<f64>>,
    pub stream: Vec<f64>,
}

impl TierTimes {
    pub fn add(&mut self, tier: &'static str, sent: &Sent) {
        self.first_line
            .entry(tier)
            .or_default()
            .push(sent.first_line_s());
        self.stream.push(sent.stream_s());
    }
}

/// What the serve layer did for one stream of requests.
pub struct ServeLayer {
    pub requests: u64,
    pub tiers: TierTimes,
    /// `Server::counters()` after the stream.
    pub counters: BTreeMap<&'static str, u64>,
    /// Bytes the server left in its state directory after drain.
    pub state_bytes: u64,
}

/// The serve probe of workloads that do not run the server themselves:
/// the reference spec sent by both clients at once (a cold miss and a
/// single-flight join), then again (a hit), then with another beacon
/// period (a warm fork).
pub fn serve_probe(
    tr: &Tracer,
    parent: u64,
    spec: &str,
    warm_spec: &str,
    state_dir: &Path,
) -> Result<ServeLayer, String> {
    let server = start_server(state_dir)?;
    let addr = server.local_addr().to_string();
    let rounds = [[spec, spec], [spec, warm_spec]];
    let results = lockstep(&addr, &rounds);
    let mut tiers = TierTimes::default();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for (i, result) in results.into_iter().enumerate() {
        let sent = result?;
        if sent.response.status != 200 {
            return Err(format!(
                "serve probe request {i}: status {}",
                sent.response.status
            ));
        }
        trace_sent(tr, parent, i as u64 + 1, &sent);
        let tier = match (i, sent.cache()) {
            (3, "miss") => "warm",
            (_, "miss") => "miss",
            (_, "join") => "join",
            (_, "hit") => "hit",
            (_, other) => return Err(format!("serve probe request {i}: cache '{other}'")),
        };
        tiers.add(tier, &sent);
        if i < 3 {
            bodies.push(sent.response.body);
        }
    }
    if bodies.iter().any(|b| *b != bodies[0]) {
        return Err("serve probe: repeats of one spec returned different bodies".into());
    }
    let counters: BTreeMap<&'static str, u64> = server.counters().into_iter().collect();
    server.shutdown();
    let state_bytes = stats::dir_bytes(state_dir);
    let _ = std::fs::remove_dir_all(state_dir);
    let (hits, joins, warm) = (
        counters.get("serve.cache_hits").copied().unwrap_or(0),
        counters.get("serve.joined").copied().unwrap_or(0),
        counters.get("serve.warm_forks").copied().unwrap_or(0),
    );
    if (hits, joins, warm) != (1, 1, 1) {
        return Err(format!(
            "serve probe: expected 1 hit, 1 join, 1 warm fork; got {hits}, {joins}, {warm}"
        ));
    }
    Ok(ServeLayer {
        requests: 4,
        tiers,
        counters,
        state_bytes,
    })
}
