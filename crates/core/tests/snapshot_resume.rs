//! Resume equivalence and corruption safety for the snapshot subsystem.
//!
//! The tentpole property: interrupting a run with a snapshot and resuming
//! it produces **bit-identical** results — the same `RunMetrics` and the
//! same full-telemetry JSONL — as the uninterrupted run, for every mesh
//! backend and under fault injection. And the dual safety property:
//! corrupted snapshot bytes yield a typed [`SnapshotError`], never a
//! panic.

use std::sync::OnceLock;

use cocoa_core::executor::manifest::{decode_metrics, ManifestError, SweepManifest, MANIFEST_KIND};
use cocoa_core::metrics::RunMetrics;
use cocoa_core::runner::SimRun;
use cocoa_core::scenario::Scenario;
use cocoa_core::world::mesh::make_backend;
use cocoa_localization::kernel::GridPipeline;
use cocoa_multicast::odmrp::OdmrpConfig;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_net::packet::{GroupId, NodeId};
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::snapshot::{
    put_bool, put_u32, put_u64, put_usize, Snapshot, SnapshotError, SnapshotWriter,
};
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

const DURATION_S: u64 = 40;
const FAULT_PRESETS: [&str; 2] = ["sync-crash", "chaos"];

fn scenario(seed: u64, protocol: MulticastProtocol, preset: &str) -> Scenario {
    let duration = SimDuration::from_secs(DURATION_S);
    let num_robots = 6;
    let mut b = Scenario::builder();
    b.seed(seed)
        .duration(duration)
        .robots(num_robots)
        .equipped(3)
        .beacon_period(SimDuration::from_secs(10))
        .multicast(protocol)
        .faults(FaultPlan::preset(preset, duration, num_robots).expect("known preset"));
    b.build()
}

/// Runs `s` start to finish with full telemetry.
fn uninterrupted(s: &Scenario) -> (RunMetrics, String) {
    let (metrics, telemetry) = SimRun::new(s, Telemetry::new(TelemetryLevel::Full)).finish();
    (metrics, telemetry.to_jsonl(false))
}

/// Runs `s` to `at`, captures a snapshot, abandons that run, restores the
/// snapshot and runs the restored state to completion.
fn interrupted_at(s: &Scenario, at: SimTime) -> (RunMetrics, String) {
    let mut first = SimRun::new(s, Telemetry::new(TelemetryLevel::Full));
    first.run_until(at);
    let bytes = first.capture();
    drop(first);
    let resumed = SimRun::resume(&bytes).expect("own snapshot must restore");
    let (metrics, telemetry) = resumed.finish();
    (metrics, telemetry.to_jsonl(false))
}

#[test]
fn resume_is_bit_identical_across_backends_and_fault_presets() {
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for protocol in MulticastProtocol::ALL {
        for preset in FAULT_PRESETS {
            let s = scenario(42, protocol, preset);
            let (m_cold, j_cold) = uninterrupted(&s);
            let (m_res, j_res) = interrupted_at(&s, at);
            assert_eq!(
                m_cold,
                m_res,
                "{}/{preset}: RunMetrics diverged after resume",
                protocol.as_str()
            );
            assert_eq!(
                j_cold,
                j_res,
                "{}/{preset}: telemetry JSONL diverged after resume",
                protocol.as_str()
            );
        }
    }
}

#[test]
fn resume_is_bit_identical_for_every_estimator_backend() {
    // The estimator section is backend-tagged: each RF solver's state
    // (posterior cells / range set / EKF mean+covariance) must survive
    // capture and restore so the resumed run stays bit-identical, across
    // every mesh backend it might be combined with.
    use cocoa_localization::estimator::RfAlgorithm;
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for algorithm in RfAlgorithm::ALL {
        for protocol in MulticastProtocol::ALL {
            let mut s = scenario(42, protocol, "sync-crash");
            s.rf_algorithm = algorithm;
            s.validate().expect("estimator scenario must validate");
            let (m_cold, j_cold) = uninterrupted(&s);
            let (m_res, j_res) = interrupted_at(&s, at);
            assert_eq!(
                m_cold,
                m_res,
                "{algorithm}/{}: RunMetrics diverged after resume",
                protocol.as_str()
            );
            assert_eq!(
                j_cold,
                j_res,
                "{algorithm}/{}: telemetry JSONL diverged after resume",
                protocol.as_str()
            );
        }
    }
}

#[test]
fn resume_is_bit_identical_for_dense_and_adaptive_grids() {
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    let pipelines = [
        GridPipeline::default(),
        GridPipeline {
            adaptive: true,
            ..GridPipeline::default()
        },
    ];
    for pipeline in pipelines {
        for protocol in MulticastProtocol::ALL {
            let mut s = scenario(42, protocol, "sync-crash");
            s.grid_pipeline = pipeline;
            s.validate().expect("pipeline scenario must validate");
            let (m_cold, j_cold) = uninterrupted(&s);
            let (m_res, j_res) = interrupted_at(&s, at);
            assert_eq!(
                m_cold,
                m_res,
                "{}/{}: RunMetrics diverged after resume",
                pipeline.variant_name(),
                protocol.as_str()
            );
            assert_eq!(
                j_cold,
                j_res,
                "{}/{}: telemetry JSONL diverged after resume",
                pipeline.variant_name(),
                protocol.as_str()
            );
        }
    }
}

#[test]
fn schema_4_snapshots_are_refused_with_a_typed_error() {
    // Schema 4 still carried the grid kernel, precision and fused-window
    // state; a current capture relabelled as v4 stands in for such a file.
    let mut bytes = pristine().clone();
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    match SimRun::resume(&bytes) {
        Err(err) => assert_eq!(err, SnapshotError::UnsupportedVersion { found: 4 }),
        Ok(_) => panic!("a schema-4 snapshot must not restore"),
    }
}

#[test]
fn resume_restores_histogram_state_bit_identically() {
    // The deterministic histograms (per-robot error, entropy, RSSI,
    // queue depth, …) are part of the snapshot codec: a resumed run's
    // final histograms must equal the uninterrupted run's, bucket for
    // bucket and aggregate for aggregate. Wall-clock histograms
    // (`span.duration_us`) are measurement, not state — they restart
    // empty on resume and are excluded from the comparison.
    let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2);
    for protocol in MulticastProtocol::ALL {
        let s = scenario(42, protocol, "chaos");
        let (_, t_cold) = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full)).finish();

        let mut first = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full));
        first.run_until(at);
        let bytes = first.capture();
        drop(first);
        let resumed = SimRun::resume(&bytes).expect("own snapshot must restore");
        let (_, t_res) = resumed.finish();

        let cold: Vec<_> = t_cold.histograms().deterministic_sorted();
        let res: Vec<_> = t_res.histograms().deterministic_sorted();
        assert_eq!(
            cold,
            res,
            "{}: deterministic histograms diverged after resume",
            protocol.as_str()
        );
        assert!(
            cold.iter().any(|(_, h)| h.count() > 0),
            "the comparison must cover populated histograms"
        );
    }
}

#[test]
fn entropy_queries_leave_no_trace_in_the_snapshot() {
    // The posterior-entropy memo is derived data, not state. At
    // `Counters` the metrics tick queries every live RF robot's entropy
    // (and the window watchdog queries it at each window end), so a
    // capture right after a tick holds filled memos. A resumed run
    // restores its posteriors with empty memos; capturing it again at
    // once must give the same bytes.
    let at = SimTime::ZERO + SimDuration::from_secs(25);
    let pipelines = [
        GridPipeline::default(),
        GridPipeline {
            adaptive: true,
            ..GridPipeline::default()
        },
    ];
    for pipeline in pipelines {
        let mut s = scenario(42, MulticastProtocol::Mrmm, "sync-crash");
        s.grid_pipeline = pipeline;
        s.validate().expect("pipeline scenario must validate");
        let mut queried = SimRun::new(&s, Telemetry::new(TelemetryLevel::Counters));
        queried.run_until(at);
        let bytes = queried.capture();
        let mut unqueried = SimRun::resume(&bytes).expect("own snapshot must restore");
        assert!(
            unqueried.capture() == bytes,
            "{}: an entropy query changed the snapshot bytes",
            pipeline.variant_name()
        );
        let (_, t) = queried.finish();
        let entropy = t
            .histograms()
            .get("run.entropy_frac")
            .expect("registered histogram");
        assert!(entropy.count() > 0, "the run must have queried entropy");
    }
}

#[test]
fn marked_resume_counts_and_announces_the_restore() {
    let s = scenario(42, MulticastProtocol::Flood, "sync-crash");
    let mut first = SimRun::new(&s, Telemetry::new(TelemetryLevel::Full));
    first.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
    let bytes = first.capture();
    let (_, capturing) = first.finish();
    assert_eq!(capturing.counters().get("snapshot.captures"), Some(1));
    assert_eq!(
        capturing.counters().get("snapshot.bytes"),
        Some(bytes.len() as u64)
    );

    let resumed = SimRun::resume_marked(&bytes).expect("own snapshot must restore");
    let (_, telemetry) = resumed.finish();
    assert_eq!(telemetry.counters().get("snapshot.restores"), Some(1));
    let jsonl = telemetry.to_jsonl(false);
    assert!(
        jsonl.contains("\"kind\":\"snapshot_restored\""),
        "marked resume must announce itself in the timeline"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// snapshot → restore → run is bit-identical for random seeds,
    /// snapshot instants, mesh backends and fault presets.
    #[test]
    fn snapshot_restore_run_is_bit_identical(
        seed in 1u64..10_000,
        backend in 0usize..3,
        preset in 0usize..2,
        quarter in 1u64..4,
    ) {
        let s = scenario(seed, MulticastProtocol::ALL[backend], FAULT_PRESETS[preset]);
        let at = SimTime::ZERO + SimDuration::from_secs(DURATION_S * quarter / 4);
        let (m_cold, j_cold) = uninterrupted(&s);
        let (m_res, j_res) = interrupted_at(&s, at);
        prop_assert_eq!(m_cold, m_res);
        prop_assert_eq!(j_cold, j_res);
    }
}

/// A valid snapshot to corrupt, captured once for the whole test binary.
fn pristine() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = scenario(7, MulticastProtocol::Odmrp, "chaos");
        let mut run = SimRun::new(&s, Telemetry::off());
        run.run_until(SimTime::ZERO + SimDuration::from_secs(DURATION_S / 2));
        run.capture()
    })
}

#[test]
fn truncated_snapshots_yield_typed_errors() {
    let bytes = pristine();
    for cut in [0, 1, 4, 7, bytes.len() / 2, bytes.len() - 1] {
        let err = SimRun::resume(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes must not restore"));
        // Typed and displayable, never a panic.
        assert!(!err.to_string().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A bit flip anywhere in the file never panics the decoder; flips
    /// inside section payloads (past the tiny header/meta region) are
    /// always caught by the per-section CRC or a structural check.
    #[test]
    fn bit_flips_are_rejected_not_panicked_on(
        offset_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = pristine().clone();
        let offset = (offset_seed as usize) % bytes.len();
        bytes[offset] ^= 1 << bit;
        let outcome = SimRun::resume(&bytes);
        // Flips inside the CRC-covered payload area must be detected.
        // (The header + metadata line occupy well under 1 KiB; only those
        // cosmetic bytes may corrupt silently.)
        if offset >= 1024 {
            prop_assert!(outcome.is_err(), "payload flip at {offset} went undetected");
        } else if let Err(e) = outcome {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Random truncation points never restore and never panic.
    #[test]
    fn random_truncations_are_rejected(cut_seed in any::<u64>()) {
        let bytes = pristine();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(SimRun::resume(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Hand-built sections spliced into a real capture.

/// The section tags of a run snapshot, in file order.
const SECTION_TAGS: [&str; 7] = [
    "scenario",
    "engine",
    "rngs",
    "medium",
    "robots",
    "world",
    "telemetry",
];

/// `pristine()` with section `tag` replaced by `payload`, re-sealed so
/// every CRC is valid: only the decoder's own checks stand in the way.
fn splice(tag: &str, payload: Vec<u8>) -> Vec<u8> {
    let snap = Snapshot::parse(pristine()).expect("pristine snapshot parses");
    let mut w = SnapshotWriter::new(snap.meta().to_string());
    for t in SECTION_TAGS {
        let original = snap.sections().iter().find(|s| s.tag == t);
        let original = original.expect("capture holds every section");
        let body = if t == tag {
            payload.clone()
        } else {
            original.payload.clone()
        };
        w.push_section(t, body);
    }
    w.finish()
}

/// An engine section paused at `pristine()`'s instant (20 s) whose queue
/// holds exactly `events`, each an encoded event due at 21 s.
fn engine_section(events: &[Vec<u8>]) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, 20_000_000); // now
    put_u64(&mut b, DURATION_S * 1_000_000); // horizon
    put_bool(&mut b, false); // stopped
    put_u64(&mut b, 0); // processed
    put_u64(&mut b, events.len() as u64); // next_seq
    put_usize(&mut b, events.len()); // peak_len
    put_usize(&mut b, events.len());
    for (seq, event) in events.iter().enumerate() {
        put_u64(&mut b, 21_000_000);
        put_u64(&mut b, seq as u64);
        b.extend_from_slice(event);
    }
    b
}

/// Encodes one engine event: its tag, then `fields`.
fn event(tag: u8, fields: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut b = vec![tag];
    fields(&mut b);
    b
}

fn assert_malformed<T>(outcome: Result<T, SnapshotError>, what: &str) {
    match outcome {
        Err(SnapshotError::Malformed { .. }) => {}
        Err(other) => panic!("{what}: expected Malformed, got {other}"),
        Ok(_) => panic!("{what}: hostile input was accepted"),
    }
}

#[test]
fn queued_events_naming_absent_robots_are_rejected() {
    // `pristine()` is a six-robot team, so robot 6 does not exist. Each
    // event below reached a handler that indexes `world.robots` (or the
    // error snapshots) unchecked and panicked mid-run.
    let wake = |robot: usize| {
        event(3, |b| {
            put_usize(b, robot);
            put_u64(b, 2);
            put_u32(b, 0);
        })
    };
    // The fixture itself is sound: the same queue with robot 5 restores.
    let control = splice("engine", engine_section(&[wake(5)]));
    assert!(
        SimRun::resume(&control).is_ok(),
        "in-range control must restore"
    );

    let hostile = [
        ("robot wake", wake(6)),
        (
            "robot window end",
            event(4, |b| {
                put_usize(b, 6);
                put_u64(b, 2);
                put_u32(b, 0);
            }),
        ),
        (
            "beacon transmit",
            event(5, |b| {
                put_usize(b, 6);
                b.push(0);
            }),
        ),
        (
            "tx end receiver",
            event(6, |b| {
                put_u64(b, 0);
                put_usize(b, 2);
                put_usize(b, 0);
                put_usize(b, 6);
            }),
        ),
        (
            "mesh reply",
            event(7, |b| {
                put_usize(b, 6);
                put_u32(b, 0);
            }),
        ),
        (
            "mesh rebroadcast",
            event(8, |b| {
                put_usize(b, 6);
                put_u32(b, 0);
                put_u32(b, 1);
            }),
        ),
        (
            "crash fault",
            event(11, |b| {
                b.push(0);
                put_usize(b, 6);
            }),
        ),
        // No snapshot times are scheduled, so there is no slot 0.
        ("error snapshot", event(10, |b| put_usize(b, 0))),
    ];
    for (what, e) in hostile {
        assert_malformed(
            SimRun::resume(&splice("engine", engine_section(&[e]))),
            what,
        );
    }
}

/// A `Full` telemetry section with a ring of `capacity` holding
/// `events` window-start events.
fn telemetry_section(capacity: u64, events: u64) -> Vec<u8> {
    let mut b = vec![3]; // Full
    put_bool(&mut b, true);
    put_u64(&mut b, capacity);
    put_u64(&mut b, events); // emitted
    put_u64(&mut b, 0); // dropped
    put_bool(&mut b, false); // no sample interval
    put_usize(&mut b, events as usize);
    for i in 0..events {
        put_u64(&mut b, i * 1_000_000);
        put_u64(&mut b, i);
        b.push(0); // WindowStart
        put_u64(&mut b, i);
    }
    put_usize(&mut b, 0); // counters
    put_usize(&mut b, 0); // histograms
    b
}

#[test]
fn an_over_full_telemetry_ring_is_rejected() {
    // A ring only evicts when it is exactly full, so one restored past
    // its capacity would grow without bound and stop counting drops.
    let full = splice("telemetry", telemetry_section(2, 2));
    assert!(SimRun::resume(&full).is_ok(), "a full ring must restore");
    let over = splice("telemetry", telemetry_section(2, 3));
    assert_malformed(SimRun::resume(&over), "over-full ring");
}

#[test]
fn hostile_length_prefixes_are_rejected_before_allocating() {
    // Every length-prefixed sequence checks its count against the bytes
    // left before reserving anything, so a count of u64::MAX (or one
    // item more than could fit) is a typed error, not an allocation.
    let padding = [0u8; 64];
    for count in [u64::MAX, padding.len() as u64 + 1] {
        let mut prefix = Vec::new();
        put_u64(&mut prefix, count);
        prefix.extend_from_slice(&padding);

        assert_malformed(decode_metrics(&prefix), "run metrics");

        let mut w = SnapshotWriter::new(format!("{{\"kind\":\"{MANIFEST_KIND}\"}}"));
        w.push_section("sweep", prefix.clone());
        match SweepManifest::decode(&w.finish()) {
            Err(ManifestError::Corrupt(SnapshotError::Malformed { .. })) => {}
            other => panic!("manifest with {count} points: {other:?}"),
        }

        // An empty queue's section ends with its count: replace that.
        let mut engine = engine_section(&[]);
        let header = engine.len() - 8;
        engine.truncate(header);
        engine.extend_from_slice(&prefix);
        assert_malformed(SimRun::resume(&splice("engine", engine)), "engine queue");

        for protocol in MulticastProtocol::ALL {
            let mut mesh = make_backend(
                protocol,
                NodeId(0),
                GroupId(1),
                true,
                OdmrpConfig::default(),
            );
            // ODMRP and MRMM open with the forwarding-group deadline
            // (`None`), then the route list; flooding opens with its
            // dedup cache.
            let state = match protocol {
                MulticastProtocol::Flood => prefix.clone(),
                _ => [&[0u8][..], &prefix].concat(),
            };
            assert_malformed(mesh.load_state(&state), protocol.as_str());
        }
    }
}

/// The scenario section of a time-zero capture of `s`.
fn scenario_section(s: &Scenario) -> Vec<u8> {
    let bytes = SimRun::new(s, Telemetry::off()).capture();
    let snap = Snapshot::parse(&bytes).expect("own capture parses");
    let section = snap.sections().iter().find(|s| s.tag == "scenario");
    section.expect("capture holds a scenario").payload.clone()
}

#[test]
fn posteriors_that_do_not_fit_the_scenario_are_rejected() {
    // `pristine()` holds 2 m dense posteriors (100 × 100 cells). Each
    // spliced scenario below asked the estimator restore for another
    // posterior shape, and the restore panicked on the cell or tile count.
    let base = scenario(7, MulticastProtocol::Odmrp, "chaos");
    // In range: 2.01 m cells still tile the area 100 × 100, so the
    // posteriors fit and the run restores and finishes.
    let mut same_count = base.clone();
    same_count.grid_resolution_m = 2.01;
    let control = SimRun::resume(&splice("scenario", scenario_section(&same_count)));
    control
        .expect("a posterior with the grid's cell count restores")
        .finish();

    let mut coarse = base.clone();
    coarse.grid_resolution_m = 4.0;
    let spliced = splice("scenario", scenario_section(&coarse));
    assert_malformed(SimRun::resume(&spliced), "4 m grid");

    let mut adaptive = base.clone();
    adaptive.grid_pipeline.adaptive = true;
    let spliced = splice("scenario", scenario_section(&adaptive));
    assert_malformed(SimRun::resume(&spliced), "adaptive pipeline");
}
