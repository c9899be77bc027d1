//! Request specs: the wire form of a scenario.
//!
//! A serve request is one flat JSON object whose keys mirror the
//! `cocoa-run` command line (`robots`, `period_s`, `estimator`, …).
//! Parsing is **fail-closed**: an unknown key, a mistyped value or a
//! contradictory combination rejects the whole request — a server must
//! never silently run a different experiment than the client described.
//!
//! The parsed request reuses [`Scenario`]'s own builder and
//! validation, so the wire path and the CLI path can never drift apart
//! on what constitutes a valid experiment.

use cocoa_localization::estimator::{EstimatorMode, RfAlgorithm};
use cocoa_multicast::protocol::MulticastProtocol;
use cocoa_sim::faults::FaultPlan;
use cocoa_sim::telemetry::TelemetryLevel;
use cocoa_sim::time::{SimDuration, SimTime};

use crate::runner::scenario_fingerprint;
use crate::scenario::Scenario;
use crate::tracefile::{parse_flat_object, JsonValue};

/// A fully validated run request: the scenario to simulate plus the
/// observation knobs that shape the streamed response.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The validated experiment configuration.
    pub scenario: Scenario,
    /// Telemetry detail for the streamed JSONL body.
    pub telemetry: TelemetryLevel,
    /// Per-robot timeline sample interval override.
    pub sample_interval: Option<SimDuration>,
}

fn num(key: &str, value: &JsonValue) -> Result<f64, String> {
    value
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("'{key}' must be a finite number"))
}

fn uint(key: &str, value: &JsonValue) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
}

/// Seconds as a clock duration, refusing negative values and durations
/// the microsecond clock cannot hold.
fn secs(key: &str, s: f64) -> Result<SimDuration, String> {
    SimDuration::checked_from_secs_f64(s)
        .ok_or_else(|| format!("'{key}' must be a non-negative duration the clock can hold"))
}

fn text<'v>(key: &str, value: &'v JsonValue) -> Result<&'v str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("'{key}' must be a string"))
}

fn flag(key: &str, value: &JsonValue) -> Result<bool, String> {
    match value {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("'{key}' must be true or false")),
    }
}

/// Parses one spec object into a validated [`ServeRequest`].
///
/// # Errors
///
/// A human-readable message naming the offending key: malformed JSON,
/// an unknown key, a mistyped value, or a spec that parses but
/// describes an invalid scenario (the same validation `cocoa-run`
/// applies to its flags).
pub fn parse_spec(spec: &str) -> Result<ServeRequest, String> {
    let object = parse_flat_object(spec)?;
    let mut b = Scenario::builder();
    let mut static_team = false;
    let mut speed_keys = false;
    let mut faults_preset: Option<String> = None;
    let mut telemetry = TelemetryLevel::Off;
    let mut sample_interval = None;
    for (key, value) in &object {
        match key.as_str() {
            "seed" => {
                b.seed(uint(key, value)?);
            }
            "robots" => {
                b.robots(uint(key, value)? as usize);
            }
            "equipped" => {
                b.equipped(uint(key, value)? as usize);
            }
            "duration_s" => {
                b.duration(secs(key, uint(key, value)? as f64)?);
            }
            "period_s" => {
                b.beacon_period(secs(key, uint(key, value)? as f64)?);
            }
            "window_s" => {
                b.transmit_window(secs(key, uint(key, value)? as f64)?);
            }
            "beacons" => {
                let k = uint(key, value)?;
                let k = u32::try_from(k).map_err(|_| format!("'{key}' too large"))?;
                b.beacons_per_window(k);
            }
            "v_min" => {
                speed_keys = true;
                b.v_min(num(key, value)?);
            }
            "v_max" => {
                speed_keys = true;
                b.v_max(num(key, value)?);
            }
            "static" => static_team = flag(key, value)?,
            "mode" => match text(key, value)? {
                "cocoa" => {
                    b.mode(EstimatorMode::Cocoa);
                }
                "rf-only" => {
                    b.mode(EstimatorMode::RfOnly);
                }
                "odometry" => {
                    b.mode(EstimatorMode::OdometryOnly);
                }
                other => return Err(format!("unknown mode '{other}'")),
            },
            "multicast" => {
                let v = text(key, value)?;
                let protocol = MulticastProtocol::parse(v)
                    .ok_or_else(|| format!("unknown multicast protocol '{v}'"))?;
                b.multicast(protocol);
            }
            "estimator" => match text(key, value)? {
                "bayes" => {
                    b.rf_algorithm(RfAlgorithm::Bayes);
                }
                "multilateration" => {
                    b.rf_algorithm(RfAlgorithm::Multilateration);
                }
                "ekf" => {
                    b.rf_algorithm(RfAlgorithm::Ekf);
                }
                other => return Err(format!("unknown estimator '{other}'")),
            },
            "grid_m" => {
                b.grid_resolution(num(key, value)?);
            }
            "coordination" => {
                b.coordination(flag(key, value)?);
            }
            "sync" => {
                b.sync_enabled(flag(key, value)?);
            }
            "relay" => {
                b.relay_beaconing(flag(key, value)?);
            }
            "packet_loss" => {
                b.packet_loss(num(key, value)?);
            }
            "clock_skew_ppm" => {
                b.clock_skew_ppm(num(key, value)?);
            }
            "guard_band_s" => {
                b.guard_band(secs(key, num(key, value)?)?);
            }
            "snapshot_s" => {
                b.snapshots([SimTime::ZERO + secs(key, num(key, value)?)?]);
            }
            "failover_missed_periods" => {
                let k = uint(key, value)?;
                let k = u32::try_from(k).map_err(|_| format!("'{key}' too large"))?;
                b.failover_missed_periods(k);
            }
            "entropy_watchdog_frac" => {
                b.entropy_watchdog_frac(num(key, value)?);
            }
            "outlier_gate_m" => {
                b.outlier_gate_m(num(key, value)?);
            }
            "faults" => faults_preset = Some(text(key, value)?.to_string()),
            "telemetry" => {
                let v = text(key, value)?;
                telemetry = TelemetryLevel::parse(v)
                    .ok_or_else(|| format!("unknown telemetry level '{v}'"))?;
            }
            "sample_interval_s" => {
                let s = num(key, value)?;
                if s <= 0.0 {
                    return Err("'sample_interval_s' must be positive".into());
                }
                sample_interval = Some(secs(key, s)?);
            }
            other => return Err(format!("unknown spec key '{other}'")),
        }
    }
    if static_team {
        // `static` pins every speed; explicit speeds alongside it are a
        // contradiction, not an ordering puzzle.
        if speed_keys {
            return Err("'static' conflicts with 'v_min'/'v_max'".into());
        }
        b.static_team();
    }
    let mut scenario = b.try_build()?;
    if let Some(name) = faults_preset {
        // The preset needs the final duration/team size, so it is
        // resolved after every other key (mirrors the cocoa-run CLI).
        let plan =
            FaultPlan::preset(&name, scenario.duration, scenario.num_robots).ok_or_else(|| {
                format!(
                    "unknown fault schedule '{name}' (available: {})",
                    cocoa_sim::faults::PRESET_NAMES.join(", ")
                )
            })?;
        scenario.faults = plan;
        scenario.validate()?;
    }
    Ok(ServeRequest {
        scenario,
        telemetry,
        sample_interval,
    })
}

/// A commented-free starter spec (every omitted key takes the paper's
/// default, exactly like `cocoa-run` with no flags).
pub fn example_spec() -> String {
    concat!(
        "{\n",
        "  \"seed\": 42,\n",
        "  \"robots\": 12,\n",
        "  \"equipped\": 6,\n",
        "  \"duration_s\": 300,\n",
        "  \"period_s\": 100,\n",
        "  \"mode\": \"cocoa\",\n",
        "  \"estimator\": \"bayes\",\n",
        "  \"telemetry\": \"off\"\n",
        "}\n"
    )
    .to_string()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The cache key for one request: the scenario fingerprint mixed with
/// the observation knobs. Two requests for the same scenario at
/// different telemetry levels must never share a cached body — their
/// JSONL streams differ.
pub fn request_fingerprint(request: &ServeRequest) -> u64 {
    let level = match request.telemetry {
        TelemetryLevel::Off => 0u64,
        TelemetryLevel::Counters => 1,
        TelemetryLevel::Timeline => 2,
        TelemetryLevel::Full => 3,
    };
    let interval = request
        .sample_interval
        .map(|d| d.as_micros())
        .unwrap_or(u64::MAX);
    let base = scenario_fingerprint(&request.scenario);
    splitmix(base ^ splitmix(level.wrapping_add(1)) ^ splitmix(interval))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_builder_defaults() {
        let req = parse_spec("{}").unwrap();
        assert_eq!(req.scenario, Scenario::builder().build());
        assert_eq!(req.telemetry, TelemetryLevel::Off);
        assert!(req.sample_interval.is_none());
    }

    #[test]
    fn keys_reach_the_builder() {
        let req = parse_spec(
            "{\"seed\": 7, \"robots\": 10, \"equipped\": 4, \"duration_s\": 120,\n \
             \"period_s\": 50, \"estimator\": \"ekf\", \"telemetry\": \"full\",\n \
             \"sample_interval_s\": 2.5}",
        )
        .unwrap();
        assert_eq!(req.scenario.seed, 7);
        assert_eq!(req.scenario.num_robots, 10);
        assert_eq!(req.scenario.num_equipped, 4);
        assert_eq!(req.telemetry, TelemetryLevel::Full);
        assert_eq!(req.sample_interval, Some(SimDuration::from_secs_f64(2.5)));
    }

    #[test]
    fn parsing_fails_closed() {
        assert!(parse_spec("not json").is_err());
        assert!(parse_spec("{\"robots\": \"many\"}").is_err(), "mistyped");
        for spec in [
            "{\"robotz\": 5}",
            "{\"grid_kernel\": \"simd\"}",
            "{\"grid_precision\": \"f32\"}",
            "{\"grid_fused\": true}",
        ] {
            let err = parse_spec(spec).unwrap_err();
            assert!(err.starts_with("unknown spec key"), "{spec}: {err}");
        }
        assert!(parse_spec("{\"mode\": \"psychic\"}").is_err());
        assert!(
            parse_spec("{\"static\": true, \"v_max\": 3.0}").is_err(),
            "static vs explicit speeds"
        );
        assert!(
            parse_spec("{\"robots\": 4, \"equipped\": 9}").is_err(),
            "scenario validation runs"
        );
    }

    #[test]
    fn example_spec_round_trips() {
        let req = parse_spec(&example_spec()).unwrap();
        assert_eq!(req.scenario.num_robots, 12);
    }

    #[test]
    fn observation_knobs_split_the_request_fingerprint() {
        let base = parse_spec("{\"robots\": 10, \"equipped\": 5}").unwrap();
        let traced =
            parse_spec("{\"robots\": 10, \"equipped\": 5, \"telemetry\": \"full\"}").unwrap();
        let sampled =
            parse_spec("{\"robots\": 10, \"equipped\": 5, \"sample_interval_s\": 1.0}").unwrap();
        let fps = [
            request_fingerprint(&base),
            request_fingerprint(&traced),
            request_fingerprint(&sampled),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
        assert_eq!(request_fingerprint(&base), fps[0], "deterministic");
    }
}
