//! Fuzzing the serve request parser: `parse_spec` runs on the server's
//! connection thread, so any flat object a client sends — known keys with
//! hostile values, unknown keys, non-JSON numbers — must come back as
//! `Ok` or `Err`, never as a panic.

use cocoa_core::serve::parse_spec;
use proptest::prelude::*;

/// Every key `parse_spec` accepts, plus junk and retired keys.
const KEYS: &[&str] = &[
    "seed",
    "robots",
    "equipped",
    "duration_s",
    "period_s",
    "window_s",
    "beacons",
    "v_min",
    "v_max",
    "static",
    "mode",
    "multicast",
    "estimator",
    "grid_m",
    "coordination",
    "sync",
    "relay",
    "packet_loss",
    "clock_skew_ppm",
    "guard_band_s",
    "snapshot_s",
    "failover_missed_periods",
    "entropy_watchdog_frac",
    "outlier_gate_m",
    "faults",
    "telemetry",
    "sample_interval_s",
    "robotz",
    "grid_kernel",
    "",
];

/// Numbers at the edges: negatives, zero, the microsecond clock's limit
/// in seconds, `u64` overflow, values that parse to ±∞, and tokens that
/// are not JSON numbers at all.
const EDGES: &[&str] = &[
    "-1",
    "0",
    "-0.0",
    "0.5",
    "1e300",
    "-1e300",
    "1e999",
    "-1e999",
    "NaN",
    "Infinity",
    "4294967296",
    "18446744073709",
    "18446744073710",
    "18446744073709551615",
    "18446744073709551616",
];

/// String values: every name some key accepts, and names none does.
const WORDS: &[&str] = &[
    "cocoa",
    "rf-only",
    "odometry",
    "bayes",
    "multilateration",
    "ekf",
    "flood",
    "odmrp",
    "mrmm",
    "none",
    "sync-crash",
    "burst30",
    "corrupt",
    "chaos",
    "off",
    "counters",
    "timeline",
    "full",
    "",
    "bogus",
];

fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

/// One JSON value as text.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..400).prop_map(|v| v.to_string()),
        any::<i64>().prop_map(|v| v.to_string()),
        any::<f64>().prop_map(|v| format!("{v:e}")),
        pick(EDGES).prop_map(str::to_string),
        pick(WORDS).prop_map(|w| format!("\"{w}\"")),
        any::<bool>().prop_map(|b| b.to_string()),
    ]
}

proptest! {
    // Parsing is cheap: run the CI case count by default.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flat objects of accepted and junk keys with arbitrary values parse
    /// to a request or an error; an accepted request is a valid scenario.
    #[test]
    fn flat_objects_never_panic(
        fields in proptest::collection::vec((pick(KEYS), value()), 0..8),
    ) {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let spec = format!("{{{}}}", body.join(", "));
        if let Ok(request) = parse_spec(&spec) {
            prop_assert!(request.scenario.validate().is_ok(), "{spec}");
        }
    }
}
