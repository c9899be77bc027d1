//! Byte pins for every binary format the snapshot codec writes.
//!
//! The resume and manifest tests elsewhere are round trips: they decode
//! what the same build encoded. A layout change that moves a field in
//! both the writer and the reader passes all of them while silently
//! breaking every `--resume` file, sweep manifest and persisted
//! `--state-dir` result written by an older build of the same schema.
//!
//! This file pins the bytes themselves, as `(crc32, len)`, for captures
//! and payloads that between them reach every section and every variant
//! family the codec writes. The constants must only change together
//! with a bump of `SNAPSHOT_SCHEMA_VERSION`.

use cocoa_core::executor::manifest::{encode_metrics, PointState, SweepManifest};
use cocoa_core::runner::{scenario_fingerprint, warm_fingerprint, SimRun};
use cocoa_core::scenario::Scenario;
use cocoa_localization::estimator::RfAlgorithm;
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::snapshot::crc32;
use cocoa_sim::telemetry::{Telemetry, TelemetryLevel};
use cocoa_sim::time::{SimDuration, SimTime};

/// `(crc32, len)` of a byte string.
fn pin(bytes: &[u8]) -> (u32, usize) {
    (crc32(bytes), bytes.len())
}

/// A small team: six robots, three equipped, ten-second beacon periods
/// on a 4 m grid.
fn small(duration_s: u64) -> Scenario {
    let mut b = Scenario::builder();
    b.seed(42)
        .duration(SimDuration::from_secs(duration_s))
        .robots(6)
        .equipped(3)
        .grid_resolution(4.0)
        .beacon_period(SimDuration::from_secs(10));
    b.build()
}

/// The small team under the `chaos` fault preset over 120 s.
fn chaos() -> Scenario {
    let mut s = small(120);
    s.faults = FaultPlan::preset("chaos", s.duration, s.num_robots).expect("known preset");
    s.validate().expect("chaos scenario must validate");
    s
}

/// Runs `s` to `at_us` and captures the run there.
fn capture_at(s: &Scenario, telemetry: Telemetry, at_us: u64) -> Vec<u8> {
    let mut run = SimRun::new(s, telemetry);
    run.run_until(SimTime::from_micros(at_us));
    run.capture()
}

fn counters() -> Telemetry {
    Telemetry::new(TelemetryLevel::Counters)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn dense_bayes_at_counters_with_histograms() {
    let bytes = capture_at(&small(40), counters(), 25_000_000);
    assert_eq!(pin(&bytes), (0x22555F4C, 71942));
}

#[test]
fn multilateration_and_ekf() {
    let mut pins = Vec::new();
    for algorithm in [RfAlgorithm::Multilateration, RfAlgorithm::Ekf] {
        let mut s = small(40);
        s.rf_algorithm = algorithm;
        pins.push(pin(&capture_at(&s, counters(), 25_000_000)));
    }
    assert_eq!(pins, [(0xEA674802, 12566), (0xD642D590, 11753)]);
}

#[test]
fn every_mesh_backend() {
    let pins: Vec<_> = MulticastProtocol::ALL
        .into_iter()
        .map(|protocol| {
            let mut s = small(40);
            s.multicast = protocol;
            pin(&capture_at(&s, counters(), 25_000_000))
        })
        .collect();
    assert_eq!(
        pins,
        [
            (0xC3F92E50, 69755),
            (0xBD3CB9C7, 71943),
            (0x22555F4C, 71942)
        ]
    );
}

#[test]
fn chaos_preset_mid_corrupt_frame() {
    // 62.36 s sits inside the airtime of a garbled frame that no longer
    // parses, so the world section holds a corrupt transmission; the
    // burst overlay is on (from 24 s) and the reboot, garble-end and
    // beacon-offset-end faults are still queued.
    let bytes = capture_at(&chaos(), counters(), 62_360_100);
    assert_eq!(pin(&bytes), (0x29AE8103, 71045));
}

#[test]
fn full_telemetry_in_a_capped_ring() {
    // Captured right after window 2 starts: the 48-event ring has
    // dropped older events but still holds the coordinator's legacy
    // record for that window.
    let telemetry = Telemetry::with_capacity(TelemetryLevel::Full, 48);
    let bytes = capture_at(&small(40), telemetry, 20_000_000);
    assert!(contains(&bytes, b"beacon period 2 starts"));
    assert_eq!(pin(&bytes), (0x0CAF42AE, 71307));
}

#[test]
fn finished_run_metrics() {
    let mut s = chaos();
    s.snapshot_times = vec![SimTime::from_secs(60)];
    let (metrics, _) = SimRun::new(&s, Telemetry::off()).finish();
    assert_eq!(pin(&encode_metrics(&metrics)), (0x5E42B0CF, 4036));
}

#[test]
fn sweep_manifest_with_every_point_state() {
    let done = small(40);
    let (metrics, _) = SimRun::new(&done, Telemetry::off()).finish();
    let mut flying = small(40);
    flying.multicast = MulticastProtocol::Flood;
    let mut pending = small(40);
    pending.rf_algorithm = RfAlgorithm::Ekf;
    let manifest = SweepManifest {
        fingerprints: [&done, &flying, &pending]
            .map(scenario_fingerprint)
            .to_vec(),
        states: vec![
            PointState::Completed(Box::new(metrics)),
            PointState::InFlight(capture_at(&flying, Telemetry::off(), 15_000_000)),
            PointState::Pending,
        ],
    };
    assert_eq!(pin(&manifest.encode()), (0x2F108E04, 70623));
}

#[test]
fn scenario_fingerprints() {
    let default = Scenario::builder().build();
    let mut chaotic = default.clone();
    chaotic.faults =
        FaultPlan::preset("chaos", default.duration, default.num_robots).expect("known preset");
    assert_eq!(
        [
            scenario_fingerprint(&default),
            warm_fingerprint(&default),
            scenario_fingerprint(&chaotic),
            warm_fingerprint(&chaotic),
        ],
        [
            0xD510D394000001AE,
            0xD9D1EF9B00000136,
            0x51244F1800000266,
            0xD9D1EF9B00000136,
        ]
    );
}
