//! Deterministic run snapshots: capture a run at any event boundary,
//! restore it bit-identically, or fork it under a patched scenario.
//!
//! The serialized form is the dependency-free sectioned container of
//! [`cocoa_sim::snapshot`]: a JSON metadata header (human-greppable) plus
//! CRC-guarded binary sections — `"scenario"`, `"engine"`, `"rngs"`,
//! `"medium"`, `"robots"`, `"world"` and `"telemetry"` — that together
//! hold *everything* the event loop reads: the pending event queue, every
//! named RNG stream's position, per-robot pose/estimator/radio/clock/
//! health/mesh state, in-flight transmissions, fault overlays and the
//! telemetry bus itself. Restoring a snapshot and running to the horizon
//! therefore produces metrics and a deterministic trace that are
//! bit-identical to the uninterrupted run — the property the resume tests
//! pin down.
//!
//! Three consumers build on this module:
//!
//! - `cocoa-run --snapshot-at/--resume`: operational save/restore;
//! - [`SimRun::warm_fork`]: sweep acceleration — capture the shared
//!   time-zero state (calibration done, team placed) once per seed, then
//!   fork it under each sweep point's patched scenario;
//! - `cocoa-trace bisect` + [`cocoa_sim::snapshot::Snapshot::diff`]:
//!   divergence localization between two runs.

use bytes::Bytes;

use cocoa_localization::backend::BackendCheckpoint;
use cocoa_localization::bayes::GridStats;
use cocoa_localization::ekf::EkfSnapshot;
use cocoa_localization::estimator::{
    EstimatorCheckpoint, EstimatorMode, GridPipeline, RfAlgorithm, WindowStats, WindowedRfEstimator,
};
use cocoa_localization::grid::{DistanceField, GridConfig};
use cocoa_localization::multilateration::RangeObservation;
use cocoa_mobility::motion::RobotMotion;
use cocoa_mobility::odometry::{Odometer, OdometerCheckpoint, OdometryConfig};
use cocoa_mobility::waypoint::{WaypointCheckpoint, WaypointConfig, WaypointModel};
use cocoa_multicast::mrmm::PruneConfig;
use cocoa_multicast::odmrp::{MeshMode, OdmrpConfig};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::calibration::{calibrate, CalibrationConfig, PdfTable, RadialConstraintTable};
use cocoa_net::channel::{ChannelParams, PathLossModel, RfChannel};
use cocoa_net::energy::{EnergyParams, PowerState};
use cocoa_net::mac::{ActiveTxState, Medium, MediumState, TxId};
use cocoa_net::packet::{NodeId, Packet};
use cocoa_net::radio::{Radio, RadioCheckpoint};
use cocoa_sim::engine::Engine;
use cocoa_sim::event::EventQueue;
use cocoa_sim::faults::{Fault, FaultEvent, FaultPlan, GilbertElliott, GilbertElliottLink};
use cocoa_sim::jsonfmt::ObjectWriter;
use cocoa_sim::rng::{DetRng, SeedSplitter};
use cocoa_sim::snapshot::{
    put_bytes, put_u32, put_u64, put_usize, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, SNAPSHOT_SCHEMA_VERSION,
};
use cocoa_sim::telemetry::hist::{HistSnapshot, Histogram, NUM_BUCKETS};
use cocoa_sim::telemetry::{
    SpanStart, StampedEvent, Telemetry, TelemetryCheckpoint, TelemetryEvent, TelemetryLevel,
    TraceLevel,
};
use cocoa_sim::time::{SimDuration, SimTime};

use crate::codec::{self, codec_enum, codec_struct, malformed, put_seq, read_len, Codec};
use crate::health::{DegradationState, HealthLedger, HealthMonitor};
use crate::metrics::{
    ErrorPoint, ErrorSnapshot, RobotFinalState, RobustnessStats, RunMetrics, TrafficStats,
};
use crate::robot::{FixAnchor, Robot};
use crate::scenario::Scenario;
use crate::sync::DriftingClock;
use crate::world::events::{Event, SpanIds, TxIntent};
use crate::world::{self, events, mesh, metrics_hook, WorldState, SYNC_GROUP};

/// Section tags, in the order they are written.
const SECTIONS: [&str; 7] = [
    "scenario",
    "engine",
    "rngs",
    "medium",
    "robots",
    "world",
    "telemetry",
];

// ---------------------------------------------------------------------------
// Scenario section, and the leaf values the other sections share.
// ---------------------------------------------------------------------------

impl Codec for DetRng {
    fn put(&self, buf: &mut Vec<u8>) {
        for word in self.state() {
            put_u64(buf, word);
        }
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let s = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if s == [0u64; 4] {
            return Err(malformed("rng stream has the all-zero state"));
        }
        Ok(DetRng::from_state(s))
    }
}

/// Packets travel in their own wire encoding, as a length-prefixed blob.
impl Codec for Packet {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, &self.encode());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Packet::decode(Bytes::from(r.bytes()?))
            .map_err(|e| malformed(format!("undecodable packet in snapshot: {e:?}")))
    }
}

codec_enum! { RfAlgorithm, "rf algorithm" { 0 => Bayes {}, 1 => Multilateration {}, 2 => Ekf {} } }
codec_struct! { EnergyParams {
    idle_mw, sleep_mw, tx_uj_per_byte, tx_uj_fixed, rx_uj_per_byte, rx_uj_fixed, wake_uj,
} }
codec_struct! { OdometryConfig { displacement_sigma, angular_sigma, heading_drift_sigma } }
codec_struct! { GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } }
codec_enum! { Fault, "fault" {
    0 => Crash { robot },
    1 => Reboot { robot },
    2 => ClockSkewStep { robot, delta_ppm },
    3 => GarbleTxStart { robot },
    4 => GarbleTxEnd { robot },
    5 => BeaconOffsetStart { robot, dx_m, dy_m },
    6 => BeaconOffsetEnd { robot },
    7 => BurstLossStart { model },
    8 => BurstLossEnd {},
} }

codec_enum! { PathLossModel, "path-loss model" {
    0 => LogDistance { exponent },
    1 => TwoRayGround { antenna_height_m, wavelength_m },
} }
codec_struct! { ChannelParams {
    tx_power_dbm, path_loss_1m_db, path_loss, shadowing_sigma_db, shadowing_sigma_slope_db_per_m,
    multipath_onset_m, multipath_fade_prob, multipath_fade_mean_db, sensitivity_dbm,
} }
codec_enum! { EstimatorMode, "estimator mode" {
    0 => OdometryOnly {},
    1 => RfOnly {},
    2 => Cocoa {},
} }
codec_enum! { MeshMode, "mesh mode" { 0 => Odmrp {}, 1 => Mrmm {} } }
codec_struct! { PruneConfig { min_lifetime_s, redundancy_threshold } }
codec_struct! { OdmrpConfig {
    mode, max_hops, fg_timeout, reply_delay, rebroadcast_jitter, range_m, lifetime_horizon_s, prune,
    dedup_retention,
} }
codec_enum! { MulticastProtocol, "multicast protocol" {
    0 => Flood {},
    1 => Odmrp {},
    2 => Mrmm {},
} }

// Retired schema-5 slots. The coarse-to-fine adaptive posterior is gone,
// but four slots it used stay on the wire, so dense snapshots, scenario
// fingerprints and persisted serve results keep their bytes:
//
// - the scenario's grid-pipeline triple `(adaptive, coarse_factor,
//   refine_factor)`, written as `(false, 4, 2.0)`;
// - the Bayes checkpoint's tile list, written as an empty sequence;
// - two `GridStats` counters, written as `0`.
//
// The decoder rejects any other value in these slots as malformed.

/// Reads a retired slot, which must hold `value`.
fn read_retired<T: Codec + PartialEq>(
    r: &mut SnapshotReader<'_>,
    value: T,
    slot: &str,
) -> Result<(), SnapshotError> {
    if T::read(r)? == value {
        Ok(())
    } else {
        Err(malformed(format!(
            "retired {slot} slot holds a non-default value"
        )))
    }
}

/// The only value the retired grid-pipeline triple may hold.
const RETIRED_PIPELINE: (bool, u32, f64) = (false, 4, 2.0);

impl Codec for GridPipeline {
    fn put(&self, buf: &mut Vec<u8>) {
        RETIRED_PIPELINE.put(buf);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        read_retired(r, RETIRED_PIPELINE, "grid pipeline")?;
        Ok(GridPipeline)
    }
}
codec_struct! { FaultEvent { at, fault } }

/// A plan is its event list; decoding re-schedules each event.
impl Codec for FaultPlan {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.events().iter());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut plan = FaultPlan::new();
        for e in Vec::<FaultEvent>::read(r)? {
            plan.schedule(e.at, e.fault);
        }
        Ok(plan)
    }
}

codec_struct! { Scenario {
    seed, area, num_robots, num_equipped, duration, beacon_period, transmit_window,
    beacons_per_window, v_min, v_max, mode, rf_algorithm, coordination, grid_resolution_m, channel,
    energy, odometry, mesh, multicast, sync_enabled, clock_skew_ppm, guard_band, tick,
    metrics_interval, snapshot_times, packet_loss, relay_beaconing, relay_max_fix_age_windows,
    faults, failover_missed_periods, entropy_watchdog_frac, outlier_gate_m, grid_pipeline,
} }

/// The setup-feeding subset of the scenario encoding: exactly the
/// fields whose effects are baked into a time-zero snapshot during
/// [`world::setup_world`] (seed, arena, team size and composition,
/// speed range, estimator, grid resolution, channel, energy, odometry,
/// mesh, multicast, clock skew). Two scenarios with identical immutable
/// encodings are warm-fork compatible; everything else is schedule-side
/// and may differ between a snapshot and its forks.
///
/// [`SimRun::warm_fork`] compares these bytes directly, so the
/// compatibility check and the [`warm_fingerprint`] cache key can never
/// drift apart.
fn encode_scenario_immutable(s: &Scenario) -> Vec<u8> {
    codec::encode(&(
        (s.seed, s.area, s.num_robots, s.num_equipped, s.v_min),
        (s.v_max, s.mode, s.rf_algorithm, s.grid_resolution_m),
        (s.channel, s.energy, s.odometry),
        (s.mesh, s.multicast, s.clock_skew_ppm),
    ))
}

/// CRC-fingerprints `payload` under the given codec version: the high
/// 32 bits are the CRC-32 of the version-prefixed payload, the low 32
/// bits its length. Prefixing the version means fingerprints computed
/// by different snapshot schemas never collide, so caches keyed by a
/// fingerprint (serve results, warm artifacts, sweep manifests) cannot
/// cross-serve stale state after a codec bump.
fn versioned_fingerprint(payload: &[u8], version: u32) -> u64 {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    put_u32(&mut buf, version);
    buf.extend_from_slice(payload);
    (u64::from(cocoa_sim::snapshot::crc32(&buf)) << 32) | buf.len() as u64
}

/// A 64-bit fingerprint of a scenario's full configuration, derived
/// from the same canonical encoding the snapshot codec persists,
/// prefixed with [`SNAPSHOT_SCHEMA_VERSION`].
///
/// Sweep manifests store one fingerprint per point so a manifest is
/// never replayed against a different sweep: any scenario field that
/// affects the simulation changes the encoding, hence the fingerprint,
/// and a snapshot-codec version bump changes every fingerprint, so
/// artifacts produced by one schema are never served against another.
/// Cheap, stable across runs, and collision-resistant enough for
/// sweep-shaped point counts.
pub fn scenario_fingerprint(s: &Scenario) -> u64 {
    versioned_fingerprint(&codec::encode(s), SNAPSHOT_SCHEMA_VERSION)
}

/// A 64-bit fingerprint of only the scenario's *setup-feeding* fields
/// (see [`SimRun::warm_fork`] for the list), version-prefixed like
/// [`scenario_fingerprint`].
///
/// Two scenarios with equal warm fingerprints share calibration tables,
/// radial constraint tables and the time-zero snapshot: any of them can
/// be served by forking the same [`WarmArtifacts`]. Schedule-side
/// fields (beacon period, windowing, faults, duration…) deliberately do
/// not participate.
pub fn warm_fingerprint(s: &Scenario) -> u64 {
    versioned_fingerprint(&encode_scenario_immutable(s), SNAPSHOT_SCHEMA_VERSION)
}

// ---------------------------------------------------------------------------
// Engine section (clock + pending event queue).
// ---------------------------------------------------------------------------

codec_enum! { TxIntent, "tx intent" {
    0 => Beacon {},
    1 => Mesh(packet),
} }
codec_enum! { Event, "event" {
    0 => MoveTick {},
    1 => MetricsSample {},
    2 => WindowStart { index },
    3 => RobotWake { robot, window, epoch },
    4 => RobotWindowEnd { robot, window, epoch },
    5 => Transmit { robot, intent },
    6 => TxEnd { tx, receivers },
    7 => MeshReply { robot, source },
    8 => MeshRebroadcast { robot, source, seq },
    9 => MediumGc {},
    10 => Snapshot { index },
    11 => Fault(fault),
} }

struct EngineParts {
    now: SimTime,
    horizon: SimTime,
    stopped: bool,
    processed: u64,
    next_seq: u64,
    peak_len: usize,
    events: Vec<(SimTime, u64, Event)>,
}

codec_struct! { EngineParts { now, horizon, stopped, processed, next_seq, peak_len, events } }

/// Whether every robot index `e` names is inside a `num_robots` team.
fn robots_in_range(e: &Event, num_robots: usize) -> bool {
    match e {
        Event::RobotWake { robot, .. }
        | Event::RobotWindowEnd { robot, .. }
        | Event::Transmit { robot, .. }
        | Event::MeshReply { robot, .. }
        | Event::MeshRebroadcast { robot, .. } => *robot < num_robots,
        Event::TxEnd { receivers, .. } => receivers.iter().all(|&j| j < num_robots),
        Event::Fault(fault) => fault.robot().is_none_or(|robot| robot < num_robots),
        Event::MoveTick
        | Event::MetricsSample
        | Event::WindowStart { .. }
        | Event::MediumGc
        | Event::Snapshot { .. } => true,
    }
}

fn decode_engine(
    r: &mut SnapshotReader<'_>,
    num_robots: usize,
) -> Result<EngineParts, SnapshotError> {
    let parts = EngineParts::read(r)?;
    // Pre-validate what `EventQueue::from_parts` would otherwise assert,
    // so a corrupt section surfaces as a typed error rather than a panic.
    if parts.peak_len < parts.events.len() {
        return Err(malformed(format!(
            "queue peak_len {} below pending count {}",
            parts.peak_len,
            parts.events.len()
        )));
    }
    for (t, seq, e) in &parts.events {
        if *seq >= parts.next_seq {
            return Err(malformed(format!(
                "queued event seq {seq} not below next_seq {}",
                parts.next_seq
            )));
        }
        if *t < parts.now {
            return Err(malformed(format!(
                "queued event at {t} is before the engine clock {}",
                parts.now
            )));
        }
        // The handlers index `world.robots` with these unchecked.
        if !robots_in_range(e, num_robots) {
            return Err(malformed(format!(
                "queued event {e:?} names a robot outside the {num_robots}-robot team"
            )));
        }
    }
    Ok(parts)
}

// ---------------------------------------------------------------------------
// Medium section.
// ---------------------------------------------------------------------------

codec_struct! { ActiveTxState { id, src, src_pos, start, end, packet } }
codec_struct! { MediumState {
    capture_margin_db, retention, next_id, total_tx, total_collisions, total_half_duplex, active,
    rssi,
} }

// ---------------------------------------------------------------------------
// Robots section.
// ---------------------------------------------------------------------------

codec_struct! { WindowStats {
    windows, fixes, flat_windows, beacons_seen, beacons_applied, beacons_rejected_outlier,
} }

/// The live counters, each followed by a retired one.
impl Codec for GridStats {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.kernel_simd, 0u64, self.cells_touched, 0u64).put(buf);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let kernel_simd = Codec::read(r)?;
        read_retired(r, 0u64, "grid counter")?;
        let cells_touched = Codec::read(r)?;
        read_retired(r, 0u64, "grid counter")?;
        Ok(GridStats {
            kernel_simd,
            cells_touched,
        })
    }
}
codec_struct! { RangeObservation { anchor, range, weight } }
codec_struct! { EkfSnapshot {
    x, y, p11, p12, p22, updates_applied, updates_gated, consecutive_gated,
} }

/// The lifecycle header shared by every backend, led by the backend's
/// algorithm tag, then the solver payload of that backend (mirroring
/// [`BackendCheckpoint`]).
impl Codec for EstimatorCheckpoint {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.algorithm(), self.last_fix, self.in_window, self.stats).put(buf);
        match &self.backend {
            BackendCheckpoint::Bayes {
                posterior_cells,
                grid_stats,
                beacons_applied,
                beacons_seen,
            } => {
                posterior_cells.put(buf);
                (*beacons_applied, *beacons_seen).put(buf);
                put_usize(buf, 0); // the retired tile list
                grid_stats.put(buf);
            }
            BackendCheckpoint::Lateration { ranges } => ranges.put(buf),
            BackendCheckpoint::Ekf {
                filter,
                window_applied,
                last_odo,
            } => (*filter, *window_applied, *last_odo).put(buf),
        }
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (algorithm, last_fix, in_window, stats): (RfAlgorithm, _, _, _) = Codec::read(r)?;
        let backend = match algorithm {
            RfAlgorithm::Bayes => {
                let (posterior_cells, beacons_applied, beacons_seen) = Codec::read(r)?;
                read_retired(r, 0usize, "tile list")?;
                BackendCheckpoint::Bayes {
                    posterior_cells,
                    beacons_applied,
                    beacons_seen,
                    grid_stats: Codec::read(r)?,
                }
            }
            RfAlgorithm::Multilateration => BackendCheckpoint::Lateration {
                ranges: Codec::read(r)?,
            },
            RfAlgorithm::Ekf => BackendCheckpoint::Ekf {
                filter: Codec::read(r)?,
                window_applied: Codec::read(r)?,
                last_odo: Codec::read(r)?,
            },
        };
        Ok(EstimatorCheckpoint {
            last_fix,
            in_window,
            stats,
            backend,
        })
    }
}

codec_enum! { PowerState, "power state" { 0 => Off {}, 1 => Sleep {}, 2 => Idle {} } }
codec_struct! { RadioCheckpoint {
    params, bitrate_bps, state, since, ledger, wakes, packets_sent, packets_received,
} }
codec_struct! { WaypointConfig { area, v_min, v_max } }
codec_struct! { WaypointCheckpoint { config, pose, destination, speed, legs_completed } }
codec_struct! { OdometerCheckpoint { config, estimate, distance_integrated, observations } }
codec_struct! { FixAnchor { fix, odo_at_fix } }
codec_enum! { DegradationState, "degradation state" {
    0 => Healthy {},
    1 => Degraded {},
    2 => DeadReckoning {},
    3 => Down {},
} }

/// One robot as the robots section holds it. Identity is implicit in
/// the record's position; the estimator and mesh backend are rebuilt
/// from the scenario and then restored from their checkpoints.
struct RobotRecord {
    alive: bool,
    equipped: bool,
    epoch: u32,
    has_fix: bool,
    last_fix_window: Option<u64>,
    synced_this_window: bool,
    garbled_tx: bool,
    beacon_offset: Option<(f64, f64)>,
    fix_anchor: Option<FixAnchor>,
    waypoints: WaypointCheckpoint,
    odometer: OdometerCheckpoint,
    radio: RadioCheckpoint,
    clock: (f64, f64, SimTime, u32, u32),
    health: (DegradationState, SimTime, HealthLedger),
    rf: Option<EstimatorCheckpoint>,
    mesh: Vec<u8>,
}

codec_struct! { RobotRecord {
    alive, equipped, epoch, has_fix, last_fix_window, synced_this_window, garbled_tx, beacon_offset,
    fix_anchor, waypoints, odometer, radio, clock, health, rf, mesh,
} }

impl RobotRecord {
    fn of(robot: &Robot) -> RobotRecord {
        RobotRecord {
            alive: robot.alive,
            equipped: robot.equipped,
            epoch: robot.epoch,
            has_fix: robot.has_fix,
            last_fix_window: robot.last_fix_window,
            synced_this_window: robot.synced_this_window,
            garbled_tx: robot.garbled_tx,
            beacon_offset: robot.beacon_offset,
            fix_anchor: robot.fix_anchor,
            waypoints: robot.motion.waypoints().checkpoint(),
            odometer: robot.motion.odometer().checkpoint(),
            radio: robot.radio.checkpoint(),
            clock: robot.clock.checkpoint(),
            health: robot.health.checkpoint(),
            rf: robot.rf.as_ref().map(|rf| rf.checkpoint()),
            mesh: robot.mesh.save_state(),
        }
    }

    fn into_robot(self, index: usize, scenario: &Scenario) -> Result<Robot, SnapshotError> {
        let id = NodeId(index as u32);
        let grid = GridConfig::new(scenario.area, scenario.grid_resolution_m);
        let mut mesh = mesh::make_backend(scenario.multicast, id, SYNC_GROUP, true, scenario.mesh);
        mesh.load_state(&self.mesh)?;
        let (skew, error_s, anchor, missed, stale) = self.clock;
        let (state, since, ledger) = self.health;
        Ok(Robot {
            id,
            index,
            equipped: self.equipped,
            motion: RobotMotion::from_parts(
                WaypointModel::from_checkpoint(self.waypoints),
                Odometer::from_checkpoint(self.odometer),
            ),
            radio: Radio::from_checkpoint(self.radio),
            rf: self
                .rf
                .map(|c| WindowedRfEstimator::from_checkpoint(grid, c))
                .transpose()
                .map_err(|e| malformed(format!("robot {index} estimator: {e}")))?,
            mesh,
            clock: DriftingClock::from_checkpoint(skew, error_s, anchor, missed, stale),
            has_fix: self.has_fix,
            last_fix_window: self.last_fix_window,
            synced_this_window: self.synced_this_window,
            fix_anchor: self.fix_anchor,
            alive: self.alive,
            epoch: self.epoch,
            garbled_tx: self.garbled_tx,
            beacon_offset: self.beacon_offset,
            health: HealthMonitor::from_checkpoint(state, since, ledger),
        })
    }
}

/// Written like `Vec<RobotRecord>`, one record at a time so a capture
/// never holds every robot's estimator checkpoint at once.
fn encode_robots(robots: &[Robot]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_usize(&mut buf, robots.len());
    for robot in robots {
        RobotRecord::of(robot).put(&mut buf);
    }
    buf
}

fn decode_robots(
    r: &mut SnapshotReader<'_>,
    scenario: &Scenario,
) -> Result<Vec<Robot>, SnapshotError> {
    let n = read_len(r)?;
    if n != scenario.num_robots {
        return Err(malformed(format!(
            "snapshot holds {n} robots but the scenario declares {}",
            scenario.num_robots
        )));
    }
    (0..n)
        .map(|i| RobotRecord::read(r)?.into_robot(i, scenario))
        .collect()
}

// ---------------------------------------------------------------------------
// World section (accumulators, fault overlays).
// ---------------------------------------------------------------------------

impl Codec for GilbertElliottLink {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.model(), self.in_bad()).put(buf);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (model, in_bad) = Codec::read(r)?;
        Ok(GilbertElliottLink::with_state(model, in_bad))
    }
}

/// The world section: the [`WorldState`] accumulators and fault
/// overlays that no other section holds.
struct WorldExtras {
    sync_robot: usize,
    sync_dead_windows: u32,
    max_guard: SimDuration,
    next_robot_sample: Option<SimTime>,
    traffic: TrafficStats,
    robustness: RobustnessStats,
    error_series: Vec<ErrorPoint>,
    snapshots: Vec<ErrorSnapshot>,
    position_snapshots: Vec<(SimTime, Vec<RobotFinalState>)>,
    burst: Option<Vec<GilbertElliottLink>>,
    /// Sorted, so the bytes do not depend on hash-set order.
    corrupt_txs: Vec<TxId>,
}

codec_struct! { WorldExtras {
    sync_robot, sync_dead_windows, max_guard, next_robot_sample, traffic, robustness, error_series,
    snapshots, position_snapshots, burst, corrupt_txs,
} }

fn encode_world(world: &WorldState) -> Vec<u8> {
    let mut corrupt_txs: Vec<TxId> = world.corrupt_txs.iter().copied().collect();
    corrupt_txs.sort_unstable();
    codec::encode(&WorldExtras {
        sync_robot: world.sync_robot,
        sync_dead_windows: world.sync_dead_windows,
        max_guard: world.max_guard,
        next_robot_sample: world.next_robot_sample,
        traffic: world.traffic,
        robustness: world.robustness,
        error_series: world.error_series.clone(),
        snapshots: world.snapshots.clone(),
        position_snapshots: world.position_snapshots.clone(),
        burst: world.burst.clone(),
        corrupt_txs,
    })
}

// ---------------------------------------------------------------------------
// Telemetry section.
// ---------------------------------------------------------------------------

codec_enum! { TelemetryLevel, "telemetry level" {
    0 => Off {},
    1 => Counters {},
    2 => Timeline {},
    3 => Full {},
} }
codec_enum! { TraceLevel, "trace level" { 0 => Debug {}, 1 => Info {}, 2 => Warn {} } }
codec_enum! { TelemetryEvent, "telemetry event" {
    0 => WindowStart { window },
    1 => BeaconTx { robot, x_m, y_m },
    2 => BeaconRx { robot, from, rssi_dbm, outcome },
    3 => GridUpdate { robot },
    4 => Fix { robot, window, x_m, y_m, err_m },
    5 => FlatPosterior { robot, window, entropy, threshold },
    6 => StarvedWindow { robot, window },
    7 => SyncDelivered { robot, window },
    8 => SyncMissed { robot, window },
    9 => Failover { new_sync },
    10 => MeshPrune { robot, source, seq },
    11 => RadioState { robot, state },
    12 => FaultInjected { kind, robot },
    13 => HealthTransition { robot, state },
    14 => RobotSample {
        robot, true_x_m, true_y_m, est_x_m, est_y_m, err_m, entropy_frac, energy_j, radio, health,
    },
    15 => TeamSample { mean_err_m, robots, energy_j },
    16 => SnapshotTaken { bytes, sections },
    17 => SnapshotRestored { bytes },
    18 => Legacy { level, subsystem, message },
} }
codec_struct! { StampedEvent { t_us, seq, event } }
codec_struct! { HistSnapshot { count, sum, min, max, buckets } }

impl Codec for Histogram {
    fn put(&self, buf: &mut Vec<u8>) {
        self.snapshot().put(buf);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let snap = HistSnapshot::read(r)?;
        for &(idx, _) in &snap.buckets {
            if idx as usize >= NUM_BUCKETS {
                return Err(malformed(format!("histogram bucket index {idx}")));
            }
        }
        if snap.sum.is_nan() || snap.min.is_nan() || snap.max.is_nan() {
            return Err(malformed("histogram NaN aggregate"));
        }
        Ok(Histogram::from_snapshot(&snap))
    }
}

fn encode_telemetry(t: &Telemetry) -> Vec<u8> {
    let mut buf = Vec::new();
    (t.level(), t.capacity(), t.events_emitted()).put(&mut buf);
    (t.dropped_events(), t.sample_interval()).put(&mut buf);
    let events: Vec<&StampedEvent> = t.events().collect();
    put_seq(&mut buf, events.into_iter());
    t.counters().sorted().put(&mut buf);
    // Deterministic histogram state (wall-clock histograms restart at
    // zero on resume, exactly like span timers).
    let hists = t.histograms().deterministic_sorted();
    put_usize(&mut buf, hists.len());
    for (name, hist) in hists {
        name.put(&mut buf);
        hist.put(&mut buf);
    }
    buf
}

fn decode_telemetry(r: &mut SnapshotReader<'_>) -> Result<Telemetry, SnapshotError> {
    let (level, capacity, seq, dropped): (TelemetryLevel, Option<usize>, u64, u64) =
        Codec::read(r)?;
    let sample_interval = Codec::read(r)?;
    let events: Vec<StampedEvent> = Codec::read(r)?;
    // `Telemetry::push` evicts only when the ring is exactly full, so an
    // over-full ring would grow without bound and stop counting drops.
    if capacity.is_some_and(|cap| events.len() > cap) {
        return Err(malformed(format!(
            "telemetry ring holds {} events over its capacity {capacity:?}",
            events.len()
        )));
    }
    Ok(Telemetry::from_checkpoint(TelemetryCheckpoint {
        level,
        capacity,
        seq,
        dropped,
        sample_interval,
        events,
        counters: Codec::read(r)?,
        hists: Codec::read(r)?,
    }))
}

// ---------------------------------------------------------------------------
// Top-level encode / decode.
// ---------------------------------------------------------------------------

fn encode_all(world: &WorldState, parts: &EngineParts) -> Vec<u8> {
    let mut meta = ObjectWriter::new();
    meta.str_field("kind", "cocoa-run-snapshot")
        .u64_field("t_us", parts.now.as_micros())
        .u64_field("seed", world.scenario.seed)
        .u64_field("robots", world.scenario.num_robots as u64)
        .str_field("multicast", world.scenario.multicast.as_str());
    let mut w = SnapshotWriter::new(meta.finish());
    w.push_section("scenario", codec::encode(&world.scenario));
    w.push_section("engine", codec::encode(parts));
    let mut rngs = Vec::new();
    world.move_rngs.put(&mut rngs);
    world.odo_rngs.put(&mut rngs);
    world.channel_rng.put(&mut rngs);
    world.jitter_rng.put(&mut rngs);
    world.fault_rng.put(&mut rngs);
    w.push_section("rngs", rngs);
    w.push_section("medium", codec::encode(&world.medium.state()));
    w.push_section("robots", encode_robots(&world.robots));
    w.push_section("world", encode_world(world));
    w.push_section("telemetry", encode_telemetry(&world.telemetry));
    debug_assert_eq!(w.section_count(), SECTIONS.len());
    w.finish()
}

/// Decodes section `tag` with `read`, which must consume it exactly.
fn section<T>(
    snap: &Snapshot,
    tag: &'static str,
    read: impl FnOnce(&mut SnapshotReader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = snap.section(tag)?;
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decodes snapshot bytes into a world and engine, ready to run.
///
/// When `tables` is `None` the calibration tables are recomputed from the
/// serialized scenario (deterministic: calibration consumes a dedicated
/// RNG stream derived only from the seed). Warm forks pass precomputed
/// tables instead — skipping calibration is where the sweep speedup
/// comes from.
fn decode(
    bytes: &[u8],
    tables: Option<(PdfTable, RadialConstraintTable)>,
) -> Result<(WorldState, Engine<Event>), SnapshotError> {
    let snap = Snapshot::parse(bytes)?;
    let scenario: Scenario = section(&snap, "scenario", Codec::read)?;
    scenario
        .validate()
        .map_err(|e| malformed(format!("snapshot scenario fails validation: {e}")))?;

    let channel = RfChannel::new(scenario.channel);
    let (table, radial) = tables.unwrap_or_else(|| {
        let split = SeedSplitter::new(scenario.seed);
        let table = calibrate(
            &channel,
            &CalibrationConfig::default(),
            &mut split.stream("calibration", 0),
        );
        let radial = cocoa_localization::bayes::radial_constraints_for_grid(
            &table,
            &GridConfig::new(scenario.area, scenario.grid_resolution_m),
        );
        (table, radial)
    });

    let parts = section(&snap, "engine", |r| decode_engine(r, scenario.num_robots))?;

    let (move_rngs, odo_rngs, channel_rng, jitter_rng, fault_rng) = section(
        &snap,
        "rngs",
        <(Vec<DetRng>, Vec<DetRng>, DetRng, DetRng, DetRng)>::read,
    )?;
    if move_rngs.len() != scenario.num_robots || odo_rngs.len() != scenario.num_robots {
        return Err(malformed(format!(
            "rng stream counts ({}, {}) do not match the {}-robot scenario",
            move_rngs.len(),
            odo_rngs.len(),
            scenario.num_robots
        )));
    }

    let medium = Medium::from_state(section(&snap, "medium", Codec::read)?);
    let robots = section(&snap, "robots", |r| decode_robots(r, &scenario))?;

    let extras: WorldExtras = section(&snap, "world", Codec::read)?;
    if extras.sync_robot >= scenario.num_robots {
        return Err(malformed(format!(
            "sync robot {} out of range for {} robots",
            extras.sync_robot, scenario.num_robots
        )));
    }
    if let Some(links) = &extras.burst {
        if links.len() != scenario.num_robots {
            return Err(malformed(format!(
                "burst overlay holds {} links for {} robots",
                links.len(),
                scenario.num_robots
            )));
        }
    }
    // `metrics_hook::snapshot` indexes the error snapshots unchecked.
    let slots = extras.snapshots.len();
    let beyond = |e: &Event| matches!(e, Event::Snapshot { index } if *index >= slots);
    if let Some((_, _, e)) = parts.events.iter().find(|(_, _, e)| beyond(e)) {
        return Err(malformed(format!(
            "queued {e:?} beyond {slots} error snapshots"
        )));
    }

    let mut telemetry = section(&snap, "telemetry", decode_telemetry)?;
    let spans = SpanIds::register(&mut telemetry);
    let hists = events::HistIds::register(&mut telemetry);

    let world = WorldState {
        scenario,
        channel,
        table,
        radial,
        beacon_field: DistanceField::new(),
        medium,
        robots,
        move_rngs,
        odo_rngs,
        channel_rng,
        jitter_rng,
        error_series: extras.error_series,
        snapshots: extras.snapshots,
        position_snapshots: extras.position_snapshots,
        traffic: extras.traffic,
        sync_robot: extras.sync_robot,
        max_guard: extras.max_guard,
        telemetry,
        spans,
        hists,
        next_robot_sample: extras.next_robot_sample,
        fault_rng,
        burst: extras.burst,
        corrupt_txs: extras.corrupt_txs.into_iter().collect(),
        robustness: extras.robustness,
        sync_dead_windows: extras.sync_dead_windows,
    };
    let queue = EventQueue::from_parts(parts.events, parts.next_seq, parts.peak_len);
    let engine = Engine::from_parts(
        queue,
        parts.now,
        parts.horizon,
        parts.stopped,
        parts.processed,
    );
    Ok((world, engine))
}

// ---------------------------------------------------------------------------
// SimRun: the resumable run handle.
// ---------------------------------------------------------------------------

/// A simulation run that can be paused, serialized, restored and forked.
///
/// [`crate::runner::run`] is sugar for `SimRun::new(..).finish()`; the
/// extra surface here — [`SimRun::run_until`], [`SimRun::capture`],
/// [`SimRun::resume`], [`SimRun::warm_fork`] — is what the snapshot
/// subsystem adds.
pub struct SimRun {
    world: WorldState,
    engine: Engine<Event>,
    t_total: SpanStart,
}

impl SimRun {
    /// Builds a run positioned at time zero: scenario validated,
    /// calibration done, team placed, initial events scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    pub fn new(scenario: &Scenario, telemetry: Telemetry) -> SimRun {
        let t_total = telemetry.span_start();
        let mut world = world::setup_world(scenario, telemetry);
        let engine = world::build_initial_schedule(&mut world);
        SimRun {
            world,
            engine,
            t_total,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The scenario this run is executing (for a resumed run, the one
    /// serialized in the snapshot).
    pub fn scenario(&self) -> &Scenario {
        &self.world.scenario
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Processes every event scheduled at or before `at`, then stops at
    /// that boundary. Events exactly at `at` are processed, so a
    /// subsequent [`SimRun::capture`] sits on a clean event-queue
    /// boundary. Returns early if the run finishes first.
    pub fn run_until(&mut self, at: SimTime) {
        while self.engine.next_event_time().is_some_and(|t| t <= at) {
            if !self.engine.step(&mut self.world, events::handle_event) {
                break;
            }
        }
    }

    /// Runs to the horizon and finalizes the metrics.
    pub fn finish(mut self) -> (RunMetrics, Telemetry) {
        let spans = self.world.spans;
        let t_loop = self.world.telemetry.span_start();
        self.engine.run(&mut self.world, events::handle_event);
        self.world.telemetry.span_end(spans.run_event_loop, t_loop);

        let t_finalize = self.world.telemetry.span_start();
        let horizon = self.engine.horizon();
        let metrics = metrics_hook::finalize(&mut self.world, &self.engine, horizon);
        self.world
            .telemetry
            .span_end(spans.run_finalize, t_finalize);
        self.world.telemetry.span_end(spans.run_total, self.t_total);
        (metrics, self.world.telemetry)
    }

    /// Serializes the complete run state at the current event boundary.
    ///
    /// The run is untouched and can keep running afterwards. The
    /// `SnapshotTaken` marker and the `snapshot.captures` counter are
    /// recorded on the bus *after* the bytes are serialized, so the
    /// snapshot never contains its own marker and a resumed run stays
    /// bit-identical to an uninterrupted one.
    pub fn capture(&mut self) -> Vec<u8> {
        let queue = self.engine.replace_queue(EventQueue::new());
        let next_seq = queue.next_seq();
        let peak_len = queue.peak_len();
        let events = queue.drain_sorted();
        let parts = EngineParts {
            now: self.engine.now(),
            horizon: self.engine.horizon(),
            stopped: self.engine.is_stopped(),
            processed: self.engine.events_processed(),
            next_seq,
            peak_len,
            events,
        };
        let bytes = encode_all(&self.world, &parts);
        let rebuilt = EventQueue::from_parts(parts.events, next_seq, peak_len);
        let _ = self.engine.replace_queue(rebuilt);

        let captures = self
            .world
            .telemetry
            .counters()
            .get("snapshot.captures")
            .unwrap_or(0);
        self.world
            .telemetry
            .absorb("snapshot.captures", captures + 1);
        self.world
            .telemetry
            .absorb("snapshot.bytes", bytes.len() as u64);
        self.world.telemetry.emit(
            self.engine.now(),
            TelemetryEvent::SnapshotTaken {
                bytes: bytes.len() as u64,
                sections: SECTIONS.len() as u32,
            },
        );
        bytes
    }

    /// Restores a run from [`SimRun::capture`] bytes, quietly: the
    /// telemetry bus comes back exactly as captured, with no restore
    /// marker. This is the path resume-equivalence tests and warm-start
    /// forks use, so the resumed trace is byte-identical to the
    /// uninterrupted one.
    pub fn resume(bytes: &[u8]) -> Result<SimRun, SnapshotError> {
        let (world, engine) = decode(bytes, None)?;
        let t_total = world.telemetry.span_start();
        Ok(SimRun {
            world,
            engine,
            t_total,
        })
    }

    /// Restores a run and records the restoration on the bus: a
    /// `SnapshotRestored` event plus the `snapshot.restores` counter.
    /// Operational resumes (`cocoa-run --resume`) use this; the marker
    /// makes restarts visible in timelines.
    pub fn resume_marked(bytes: &[u8]) -> Result<SimRun, SnapshotError> {
        let mut run = SimRun::resume(bytes)?;
        let restores = run
            .world
            .telemetry
            .counters()
            .get("snapshot.restores")
            .unwrap_or(0);
        run.world
            .telemetry
            .absorb("snapshot.restores", restores + 1);
        let now = run.engine.now();
        run.world.telemetry.emit(
            now,
            TelemetryEvent::SnapshotRestored {
                bytes: bytes.len() as u64,
            },
        );
        Ok(run)
    }

    /// Clones this run's calibration tables for reuse by
    /// [`SimRun::warm_fork`].
    pub fn calibration(&self) -> (PdfTable, RadialConstraintTable) {
        (self.world.table.clone(), self.world.radial.clone())
    }

    /// Forks a *time-zero* snapshot under a patched scenario.
    ///
    /// Sweeps capture the shared warm-up prefix — calibration done, team
    /// placed, RNG streams split — once per seed, then fork it for each
    /// sweep point instead of redoing that setup. Only fields that do not
    /// feed setup may differ from the snapshot's scenario: the beacon
    /// period, windowing, coordination flag, fault plan and similar
    /// schedule-side knobs. Setup-feeding fields (seed, area, team size,
    /// channel, energy, odometry, estimator, multicast, mesh config,
    /// clock skew, speed range) must match, because their effects are
    /// already baked into the captured state.
    ///
    /// The snapshot must have been captured at time zero with no events
    /// processed; anything later has already consumed schedule-dependent
    /// state and cannot be re-scheduled consistently.
    pub fn warm_fork(
        bytes: &[u8],
        scenario: &Scenario,
        table: PdfTable,
        radial: RadialConstraintTable,
        telemetry: Telemetry,
    ) -> Result<SimRun, SnapshotError> {
        let (mut world, engine) = decode(bytes, Some((table, radial)))?;
        if engine.now() != SimTime::ZERO || engine.events_processed() != 0 {
            return Err(malformed(
                "warm fork requires a snapshot captured at time zero with no events processed",
            ));
        }
        drop(engine);
        // Byte-compare the canonical immutable encodings instead of a
        // field-by-field check so this gate and the warm-artifact cache
        // key (`warm_fingerprint`) can never disagree about what counts
        // as setup-feeding.
        let compatible =
            encode_scenario_immutable(&world.scenario) == encode_scenario_immutable(scenario);
        if !compatible {
            return Err(malformed(
                "warm fork scenario changes a setup-feeding field (seed, area, team, \
                 channel, energy, odometry, estimator, multicast, mesh or clock skew)",
            ));
        }
        scenario
            .validate()
            .map_err(|e| malformed(format!("warm fork scenario fails validation: {e}")))?;

        let mut telemetry = telemetry;
        let spans = SpanIds::register(&mut telemetry);
        let hists = events::HistIds::register(&mut telemetry);
        let t_total = telemetry.span_start();
        world.scenario = scenario.clone();
        world.max_guard = (scenario.beacon_period / 4).max(scenario.guard_band);
        world.telemetry = telemetry;
        world.spans = spans;
        world.hists = hists;
        world.next_robot_sample = None;
        let engine = world::build_initial_schedule(&mut world);
        Ok(SimRun {
            world,
            engine,
            t_total,
        })
    }
}

/// The scenario-immutable artifacts of one warm-fork family: the
/// calibration PDF table, the radial constraint table and the time-zero
/// snapshot bytes, split out of the per-run [`SimRun`] state so a
/// single build can be shared (`Arc<WarmArtifacts>`) across worker
/// threads and forked once per sweep point or served request.
///
/// The artifacts are keyed by [`warm_fingerprint`]: every scenario with
/// the same setup-feeding fields forks the same artifacts regardless of
/// its schedule-side knobs. `WarmArtifacts` is `Send + Sync` (asserted
/// below), which is what lets the serve layer and `run_warm_parallel`
/// hand one copy to many workers without cloning megabytes of tables.
#[derive(Clone)]
pub struct WarmArtifacts {
    snapshot: Vec<u8>,
    table: PdfTable,
    radial: RadialConstraintTable,
    fingerprint: u64,
}

impl WarmArtifacts {
    /// Builds the artifacts for `base`'s warm-fork family: runs the
    /// full setup (validation, RF calibration, team placement, RNG
    /// stream splits), captures the time-zero snapshot, and extracts
    /// the calibration tables.
    ///
    /// # Panics
    ///
    /// Panics if `base` fails validation (same contract as
    /// [`SimRun::new`]).
    pub fn build(base: &Scenario) -> WarmArtifacts {
        let mut run = SimRun::new(base, Telemetry::off());
        let snapshot = run.capture();
        let (table, radial) = run.calibration();
        WarmArtifacts {
            snapshot,
            table,
            radial,
            fingerprint: warm_fingerprint(base),
        }
    }

    /// The [`warm_fingerprint`] of the base scenario — the cache key
    /// under which these artifacts serve repeat traffic.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The captured time-zero snapshot bytes.
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// Whether `scenario` belongs to this artifact family (equal
    /// [`warm_fingerprint`]), i.e. whether [`WarmArtifacts::fork`] can
    /// serve it.
    pub fn compatible_with(&self, scenario: &Scenario) -> bool {
        self.fingerprint == warm_fingerprint(scenario)
    }

    /// Forks a run for `scenario` from the shared time-zero state,
    /// cloning the calibration tables instead of recomputing them. See
    /// [`SimRun::warm_fork`] for the compatibility contract.
    ///
    /// # Errors
    ///
    /// Fails when `scenario` changes a setup-feeding field or fails
    /// validation.
    pub fn fork(&self, scenario: &Scenario, telemetry: Telemetry) -> Result<SimRun, SnapshotError> {
        SimRun::warm_fork(
            &self.snapshot,
            scenario,
            self.table.clone(),
            self.radial.clone(),
            telemetry,
        )
    }
}

// The whole point of the artifact split: runs and artifacts must hand
// off cleanly across worker threads. Compile-time, not a test, so a
// regression (e.g. an Rc sneaking into WorldState) fails every build.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<SimRun>();
    assert_send_sync::<WarmArtifacts>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::geometry::{Area, Point};
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = Point> {
        (0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_stats() -> impl Strategy<Value = WindowStats> {
        (
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(w, f, fl, seen, applied, rejected)| WindowStats {
                windows: u32::from(w),
                fixes: u32::from(f),
                flat_windows: u32::from(fl),
                beacons_seen: u64::from(seen),
                beacons_applied: u64::from(applied),
                beacons_rejected_outlier: u64::from(rejected),
            })
    }

    fn arb_backend() -> impl Strategy<Value = BackendCheckpoint> {
        let bayes = (
            proptest::collection::vec(0.0f64..1.0, 0..64),
            any::<u8>(),
            any::<u8>(),
        )
            .prop_map(|(cells, applied, seen)| BackendCheckpoint::Bayes {
                posterior_cells: cells,
                grid_stats: GridStats::default(),
                beacons_applied: u32::from(applied),
                beacons_seen: u32::from(seen),
            });
        let lateration = proptest::collection::vec(
            (arb_point(), 0.1f64..300.0, 0.01f64..10.0).prop_map(|(anchor, range, weight)| {
                RangeObservation {
                    anchor,
                    range,
                    weight,
                }
            }),
            0..8,
        )
        .prop_map(|ranges| BackendCheckpoint::Lateration { ranges });
        let ekf = (
            arb_point(),
            (1e-9f64..1e4, 1e-9f64..1e4, -10.0f64..10.0),
            (any::<u32>(), any::<u32>(), any::<u16>(), 0u32..8),
            prop_oneof![Just(None), arb_point().prop_map(Some)],
        )
            .prop_map(|(mean, (p11, p22, p12), (ua, ug, cg, wa), last_odo)| {
                BackendCheckpoint::Ekf {
                    filter: EkfSnapshot {
                        x: mean.x,
                        y: mean.y,
                        p11,
                        p12,
                        p22,
                        updates_applied: u64::from(ua),
                        updates_gated: u64::from(ug),
                        consecutive_gated: u32::from(cg),
                    },
                    window_applied: wa,
                    last_odo,
                }
            });
        prop_oneof![bayes, lateration, ekf]
    }

    proptest! {
        /// The estimator section round-trips byte-exactly for every
        /// backend variant: encode → decode → re-encode reproduces both
        /// the checkpoint struct and the original bytes.
        #[test]
        fn estimator_section_round_trips_byte_exactly(
            backend in arb_backend(),
            stats in arb_stats(),
            last_fix in prop_oneof![Just(None), arb_point().prop_map(Some)],
            in_window in any::<bool>(),
        ) {
            let checkpoint = EstimatorCheckpoint {
                last_fix,
                in_window,
                stats,
                backend,
            };
            let bytes = codec::encode(&checkpoint);
            let mut reader = SnapshotReader::new(&bytes, "test");
            let decoded = EstimatorCheckpoint::read(&mut reader).expect("own bytes must decode");
            prop_assert_eq!(reader.remaining(), 0, "decoder must consume the section");
            prop_assert_eq!(&decoded, &checkpoint);
            prop_assert_eq!(codec::encode(&decoded), bytes, "re-encode must be byte-identical");
        }
    }

    /// Every `ScenarioBuilder` field must perturb the fingerprint: a
    /// silently-unhashed field would let two different scenarios share a
    /// cache slot and serve each other's results.
    #[test]
    fn every_builder_field_perturbs_the_fingerprint() {
        use crate::scenario::ScenarioBuilder;
        type Tweak = Box<dyn Fn(&mut ScenarioBuilder)>;
        fn tweak(f: impl Fn(&mut ScenarioBuilder) -> &mut ScenarioBuilder + 'static) -> Tweak {
            Box::new(move |b| {
                f(b);
            })
        }
        let default_duration = Scenario::builder().build().duration;
        let perturbations: Vec<(&str, Tweak)> = vec![
            ("seed", tweak(|b| b.seed(7))),
            ("area", tweak(|b| b.area(Area::square(300.0)))),
            ("robots", tweak(|b| b.robots(40))),
            ("equipped", tweak(|b| b.equipped(10))),
            (
                "duration",
                tweak(|b| b.duration(SimDuration::from_secs(900))),
            ),
            (
                "beacon_period",
                tweak(|b| b.beacon_period(SimDuration::from_secs(50))),
            ),
            (
                "transmit_window",
                tweak(|b| b.transmit_window(SimDuration::from_secs(2))),
            ),
            ("beacons_per_window", tweak(|b| b.beacons_per_window(2))),
            ("v_min", tweak(|b| b.v_min(0.2))),
            ("v_max", tweak(|b| b.v_max(3.0))),
            (
                "static_team",
                tweak(|b| b.static_team().multicast(MulticastProtocol::Flood)),
            ),
            ("mode", tweak(|b| b.mode(EstimatorMode::OdometryOnly))),
            ("rf_algorithm", tweak(|b| b.rf_algorithm(RfAlgorithm::Ekf))),
            ("coordination", tweak(|b| b.coordination(false))),
            ("grid_resolution", tweak(|b| b.grid_resolution(4.0))),
            (
                "channel",
                tweak(|b| {
                    b.channel(ChannelParams {
                        tx_power_dbm: 18.0,
                        ..ChannelParams::default()
                    })
                }),
            ),
            (
                "energy",
                tweak(|b| {
                    b.energy(EnergyParams {
                        idle_mw: 901.0,
                        ..EnergyParams::default()
                    })
                }),
            ),
            (
                "odometry",
                tweak(|b| {
                    b.odometry(OdometryConfig {
                        displacement_sigma: 0.17,
                        ..OdometryConfig::default()
                    })
                }),
            ),
            (
                "mesh",
                tweak(|b| {
                    b.mesh(OdmrpConfig {
                        max_hops: 9,
                        ..OdmrpConfig::default()
                    })
                }),
            ),
            (
                "multicast",
                tweak(|b| b.multicast(MulticastProtocol::Odmrp)),
            ),
            ("sync_enabled", tweak(|b| b.sync_enabled(false))),
            ("clock_skew_ppm", tweak(|b| b.clock_skew_ppm(99.0))),
            (
                "guard_band",
                tweak(|b| b.guard_band(SimDuration::from_secs(2))),
            ),
            (
                "snapshots",
                tweak(|b| b.snapshots([SimTime::from_secs(100)])),
            ),
            ("relay_beaconing", tweak(|b| b.relay_beaconing(true))),
            ("packet_loss", tweak(|b| b.packet_loss(0.1))),
            (
                "faults",
                tweak(move |b| {
                    let plan = FaultPlan::preset("burst30", default_duration, 50)
                        .expect("burst30 is a canned preset");
                    b.faults(plan)
                }),
            ),
            (
                "failover_missed_periods",
                tweak(|b| b.failover_missed_periods(5)),
            ),
            (
                "entropy_watchdog_frac",
                tweak(|b| b.entropy_watchdog_frac(0.5)),
            ),
            ("outlier_gate_m", tweak(|b| b.outlier_gate_m(75.0))),
        ];
        let mut seen: Vec<(&str, u64)> = vec![(
            "default",
            scenario_fingerprint(&Scenario::builder().build()),
        )];
        for (name, tweak) in &perturbations {
            let mut b = Scenario::builder();
            tweak(&mut b);
            let s = b
                .try_build()
                .unwrap_or_else(|e| panic!("perturbation '{name}' must stay valid: {e}"));
            let fp = scenario_fingerprint(&s);
            for (other, other_fp) in &seen {
                assert_ne!(
                    fp, *other_fp,
                    "field '{name}' collides with '{other}': the field is not hashed"
                );
            }
            seen.push((name, fp));
        }
    }

    /// The codec version participates in the hash, so fingerprints from
    /// one snapshot schema never match another's: a v4 artifact cache
    /// cannot serve a v5 request.
    #[test]
    fn fingerprints_are_schema_versioned() {
        use cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION;
        let s = Scenario::builder().build();
        let full = codec::encode(&s);
        let immutable = encode_scenario_immutable(&s);
        assert_eq!(
            scenario_fingerprint(&s),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION)
        );
        assert_eq!(
            warm_fingerprint(&s),
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION)
        );
        assert_ne!(
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION),
            versioned_fingerprint(&full, SNAPSHOT_SCHEMA_VERSION + 1),
            "a codec bump must change every scenario fingerprint"
        );
        assert_ne!(
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION),
            versioned_fingerprint(&immutable, SNAPSHOT_SCHEMA_VERSION + 1),
            "a codec bump must change every warm fingerprint"
        );
    }

    /// The warm fingerprint tracks only setup-feeding fields: schedule
    /// knobs fork the same artifacts, setup knobs do not.
    #[test]
    fn warm_fingerprint_ignores_schedule_side_fields() {
        let base = Scenario::builder().build();
        let schedule = Scenario::builder()
            .beacon_period(SimDuration::from_secs(50))
            .duration(SimDuration::from_secs(600))
            .coordination(false)
            .build();
        assert_eq!(
            warm_fingerprint(&base),
            warm_fingerprint(&schedule),
            "schedule-side fields must not split the warm-artifact family"
        );
        assert_ne!(
            scenario_fingerprint(&base),
            scenario_fingerprint(&schedule),
            "the full fingerprint must still tell the requests apart"
        );
        let setup = Scenario::builder().seed(7).build();
        assert_ne!(
            warm_fingerprint(&base),
            warm_fingerprint(&setup),
            "setup-feeding fields must split the family"
        );
        // The compatibility gate agrees with the cache key, both ways.
        let artifacts = WarmArtifacts::build(&base);
        assert!(artifacts.compatible_with(&schedule));
        assert!(!artifacts.compatible_with(&setup));
        assert!(artifacts.fork(&schedule, Telemetry::off()).is_ok());
        assert!(artifacts.fork(&setup, Telemetry::off()).is_err());
    }
}
