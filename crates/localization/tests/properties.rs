//! Property-based tests for the Bayesian localization invariants, the
//! entropy memo, the EKF backend's covariance health, and backend
//! checkpoint round-trips.

use cocoa_localization::adaptive::AdaptiveGrid;
use cocoa_localization::bayes::{radial_constraints_for_grid, Posterior, CONSTRAINT_FLOOR};
use cocoa_localization::grid::ConstraintOutcome;
use cocoa_localization::prelude::*;
use cocoa_net::calibration::{calibrate, CalibrationConfig, DistancePdf, PdfTable, RadialProfile};
use cocoa_net::channel::RfChannel;
use cocoa_net::geometry::{Area, Point, Vec2};
use cocoa_net::rssi::{Dbm, RssiBin};
use cocoa_sim::rng::SeedSplitter;
use proptest::prelude::*;

fn arb_in_area() -> impl Strategy<Value = Point> {
    (0.0..200.0f64, 0.0..200.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    /// The posterior always stays a probability distribution (mass 1,
    /// non-negative) under arbitrary constraint sequences.
    #[test]
    fn posterior_stays_normalized(
        centers in proptest::collection::vec(arb_in_area(), 1..8),
        widths in proptest::collection::vec(1.0..60.0f64, 1..8),
    ) {
        let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 4.0));
        for (c, w) in centers.iter().zip(widths.iter().cycle()) {
            let c = *c;
            let w = *w;
            grid.apply_constraint(|p| (-(p.distance_to(c) / w).powi(2)).exp() + 1e-9);
            prop_assert!((grid.total_mass() - 1.0).abs() < 1e-6);
        }
    }

    /// The posterior mean always lies inside the deployment area.
    #[test]
    fn mean_inside_area(
        centers in proptest::collection::vec(arb_in_area(), 0..6),
    ) {
        let area = Area::square(200.0);
        let mut grid = PositionGrid::new(GridConfig::new(area, 4.0));
        for c in &centers {
            let c = *c;
            grid.apply_constraint(|p| (-(p.distance_to(c) / 15.0).powi(2)).exp() + 1e-9);
        }
        prop_assert!(area.contains(grid.mean()));
        prop_assert!(area.contains(grid.map_estimate()));
    }

    /// An informative constraint never increases entropy; reset restores
    /// the maximum.
    #[test]
    fn entropy_monotone_under_information(c in arb_in_area(), w in 2.0..40.0f64) {
        let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 4.0));
        let max_entropy = grid.entropy();
        grid.apply_constraint(|p| (-(p.distance_to(c) / w).powi(2)).exp() + 1e-12);
        prop_assert!(grid.entropy() <= max_entropy + 1e-9);
        grid.reset_uniform();
        prop_assert!((grid.entropy() - max_entropy).abs() < 1e-9);
    }

    /// The localizer never produces an estimate from fewer than three
    /// applied beacons, whatever the inputs.
    #[test]
    fn three_beacon_rule(beacons in proptest::collection::vec((arb_in_area(), -95.0..-35.0f64), 0..3)) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(5).stream("cal", 0),
        );
        let mut loc = BayesianLocalizer::new(GridConfig::new(Area::square(200.0), 4.0));
        for (pos, rssi) in &beacons {
            loc.observe_beacon(&table, *pos, cocoa_net::rssi::Dbm::new(*rssi));
        }
        prop_assert!(loc.beacons_applied() <= beacons.len() as u32);
        if loc.beacons_applied() < 3 {
            prop_assert!(loc.estimate().is_none());
        }
    }

    /// Tighter PDFs localize at least roughly as well as looser ones for
    /// the same beacon geometry (statistical, averaged over seeds).
    #[test]
    fn sharper_pdfs_do_not_hurt(seed in 0u64..30) {
        let area = Area::square(200.0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(85.0, 100.0),
            Point::new(112.0, 108.0),
            Point::new(100.0, 86.0),
            Point::new(90.0, 112.0),
        ];
        let run = |sigma: f64| {
            let table = PdfTable::from_entries(
                (-100..-30).map(|b| {
                    let ch = RfChannel::default();
                    let mean = ch.distance_for_mean_rssi(RssiBin(b).center());
                    (RssiBin(b), DistancePdf::Gaussian { mean, sigma })
                }),
                -80.0,
            );
            let ch = RfChannel::default();
            let mut rng = SeedSplitter::new(seed).stream("probe", 0);
            let mut loc = BayesianLocalizer::new(GridConfig::new(area, 2.0));
            for b in beacons {
                let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
                loc.observe_beacon(&table, b, rssi);
            }
            loc.estimate().map(|e| e.distance_to(robot))
        };
        if let (Some(sharp), Some(loose)) = (run(2.0), run(30.0)) {
            // Allow statistical slack; the loose table must not be
            // dramatically better.
            prop_assert!(sharp <= loose + 6.0, "sharp {sharp} vs loose {loose}");
        }
    }

    /// The radial fast path computes exactly the posterior the generic
    /// closure path computes, cell for cell, for arbitrary beacon
    /// positions (including outside the area), profile shapes and grid
    /// resolutions.
    #[test]
    fn radial_constraint_equals_generic_per_cell(
        cx in -20.0..220.0f64,
        cy in -20.0..220.0f64,
        res in 1.0..8.0f64,
        mean in 2.0..90.0f64,
        sigma in 0.25..25.0f64,
        step in 0.02..0.5f64,
    ) {
        let pdf = DistancePdf::Gaussian { mean, sigma };
        let profile = pdf.radial_profile(step, 340.0).offset(CONSTRAINT_FLOOR);
        let center = Point::new(cx, cy);
        let mut generic = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        let mut radial = generic.clone();
        // Two applications so scratch-buffer reuse is in play.
        for _ in 0..2 {
            let oa = generic.apply_constraint(|p| profile.density(p.distance_to(center)));
            let ob = radial.apply_radial_constraint(center, &profile);
            prop_assert_eq!(oa, ob);
            for iy in 0..generic.ny() {
                for ix in 0..generic.nx() {
                    let pa = generic.density_at(generic.cell_center(ix, iy));
                    let pb = radial.density_at(radial.cell_center(ix, iy));
                    prop_assert!(
                        (pa - pb).abs() < 1e-9,
                        "cell ({},{}): generic {} vs radial {}", ix, iy, pa, pb
                    );
                }
            }
        }
    }

    /// Same equivalence through a *calibrated* PDF table: whatever bin an
    /// observed RSSI resolves to, its sampled profile drives the radial
    /// path to the generic path's posterior.
    #[test]
    fn radial_matches_generic_for_calibrated_bins(
        rssi in -95.0..-40.0f64,
        cx in 0.0..200.0f64,
        cy in 0.0..200.0f64,
        res in 2.0..6.0f64,
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(11).stream("cal", 0),
        );
        prop_assume!(table.lookup(Dbm::new(rssi)).is_some());
        let pdf = table.lookup(Dbm::new(rssi)).unwrap();
        let profile = pdf.radial_profile(0.05, 340.0).offset(CONSTRAINT_FLOOR);
        let center = Point::new(cx, cy);
        let mut generic = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        let mut radial = generic.clone();
        let oa = generic.apply_constraint(|p| profile.density(p.distance_to(center)));
        let ob = radial.apply_radial_constraint(center, &profile);
        prop_assert_eq!(oa, ob);
        for iy in 0..generic.ny() {
            for ix in 0..generic.nx() {
                let pa = generic.density_at(generic.cell_center(ix, iy));
                let pb = radial.density_at(radial.cell_center(ix, iy));
                prop_assert!((pa - pb).abs() < 1e-9);
            }
        }
    }

    /// Degenerate constraints are rejected identically by both paths and
    /// leave the posterior bit-for-bit untouched.
    #[test]
    fn radial_rejection_behaviour_identical(
        cx in 0.0..200.0f64,
        cy in 0.0..200.0f64,
        res in 1.0..8.0f64,
        informative in any::<bool>(),
    ) {
        let center = Point::new(cx, cy);
        let mut generic = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        if informative {
            generic.apply_constraint(|p| (-(p.distance_to(center) / 20.0).powi(2)).exp() + 1e-9);
        }
        let mut radial = generic.clone();
        let before = generic.clone();
        let zero = RadialProfile::from_fn(0.5, 340.0, |_| 0.0);
        let oa = generic.apply_constraint(|p| zero.density(p.distance_to(center)));
        let ob = radial.apply_radial_constraint(center, &zero);
        prop_assert_eq!(oa, ConstraintOutcome::Rejected);
        prop_assert_eq!(ob, ConstraintOutcome::Rejected);
        prop_assert_eq!(&generic, &before);
        prop_assert_eq!(&radial, &before);
    }

    /// The windowed estimator's stats are internally consistent.
    #[test]
    fn window_stats_consistent(windows in 1u32..6, beacons_per in 0usize..6) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(9).stream("cal", 0),
        );
        let mut est = WindowedRfEstimator::new(GridConfig::new(Area::square(200.0), 4.0));
        let mut rng = SeedSplitter::new(10).stream("b", 0);
        use rand::Rng;
        for _ in 0..windows {
            est.begin_window();
            for _ in 0..beacons_per {
                let b = Point::new(rng.gen::<f64>() * 200.0, rng.gen::<f64>() * 200.0);
                let rssi = ch.sample_rssi(b.distance_to(Point::new(100.0, 100.0)).max(0.5), &mut rng);
                est.observe_beacon(&table, b, rssi);
            }
            est.end_window();
        }
        let stats = est.stats();
        prop_assert_eq!(stats.windows, windows);
        prop_assert!(stats.fixes <= u64::from(stats.windows) as u32);
        prop_assert!(stats.beacons_applied <= stats.beacons_seen);
        prop_assert_eq!(stats.beacons_seen, u64::from(windows) * beacons_per as u64);
    }
}

/// One step of an arbitrary EKF schedule: a dead-reckoned displacement or
/// a (possibly wildly inconsistent) range update.
#[derive(Debug, Clone, Copy)]
enum EkfOp {
    Predict(f64, f64),
    Update(f64, f64, f64, f64),
}

fn arb_ekf_op() -> impl Strategy<Value = EkfOp> {
    prop_oneof![
        ((-20.0..20.0f64), (-20.0..20.0f64)).prop_map(|(x, y)| EkfOp::Predict(x, y)),
        (
            (0.0..200.0f64),
            (0.0..200.0f64),
            (0.5..250.0f64),
            (0.25..12.0f64),
        )
            .prop_map(|(x, y, r, s)| EkfOp::Update(x, y, r, s)),
    ]
}

proptest! {
    /// The EKF covariance stays a symmetric positive-definite matrix under
    /// arbitrary interleavings of prediction steps and (gated, applied or
    /// inflating) range updates — the filter never talks itself into an
    /// impossible uncertainty, whatever the measurement stream does.
    #[test]
    fn ekf_covariance_stays_symmetric_positive_definite(
        ops in proptest::collection::vec(arb_ekf_op(), 1..60),
        initial_sigma in 1.0..150.0f64,
    ) {
        let mut f = EkfLocalizer::new(
            EkfConfig { initial_sigma_m: initial_sigma, ..EkfConfig::default() },
            Area::square(200.0),
            None,
        );
        for op in &ops {
            match *op {
                EkfOp::Predict(x, y) => f.predict(Vec2::new(x, y)),
                EkfOp::Update(x, y, r, s) => {
                    f.update_range(Point::new(x, y), r, s);
                }
            }
            // Symmetry is structural (P₁₂ is stored once); health means the
            // matrix it denotes is positive-definite and finite.
            let s = f.snapshot();
            prop_assert!(
                s.p11.is_finite() && s.p22.is_finite() && s.p12.is_finite(),
                "covariance went non-finite: {s:?}"
            );
            prop_assert!(s.p11 > 0.0 && s.p22 > 0.0, "diagonal must stay positive: {s:?}");
            prop_assert!(
                s.p12 * s.p12 <= s.p11 * s.p22 * (1.0 + 1e-9) + 1e-12,
                "P must stay positive-definite: {s:?}"
            );
            prop_assert!(f.uncertainty().is_finite());
            prop_assert!(Area::square(200.0).contains(f.estimate()));
        }
    }

    /// Every backend's checkpoint restores to an estimator that equals the
    /// original field for field — including mid-window, with a window open
    /// and beacons partially accumulated.
    #[test]
    fn backend_checkpoints_round_trip_for_every_algorithm(
        seed in 0u64..200,
        beacons_per in 0usize..6,
        windows in 1u32..4,
        open in any::<bool>(),
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(seed).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let robot = Point::new(100.0, 100.0);
        for algorithm in RfAlgorithm::ALL {
            let mut est = WindowedRfEstimator::with_algorithm(grid, algorithm);
            let mut rng = SeedSplitter::new(seed).stream("b", 0);
            use rand::Rng;
            for w in 0..windows {
                est.note_odometry(Point::new(100.0 + f64::from(w), 100.0));
                est.begin_window();
                for _ in 0..beacons_per {
                    let b = Point::new(rng.gen::<f64>() * 200.0, rng.gen::<f64>() * 200.0);
                    let rssi = ch.sample_rssi(b.distance_to(robot).max(0.5), &mut rng);
                    est.observe_beacon(&table, b, rssi);
                }
                if w + 1 < windows || !open {
                    est.end_window();
                }
            }
            let c = est.checkpoint();
            prop_assert_eq!(c.algorithm(), algorithm);
            let restored = WindowedRfEstimator::from_checkpoint(grid, c.clone())
                .expect("own checkpoint fits its grid");
            prop_assert_eq!(&restored, &est, "{} restore must be exact", algorithm);
            prop_assert_eq!(restored.checkpoint(), c, "{} re-checkpoint must be exact", algorithm);
        }
    }
}

/// Cell sides whose grids over the 200 m square are 100, 49, 50 and 67
/// cells wide: `nx % 4` = 0, 1, 2, 3, so the fused sum's trailing-cell
/// path and lane groups that straddle rows are both exercised.
const EXACTNESS_RESOLUTIONS: [(f64, usize); 4] = [(2.0, 100), (4.1, 49), (4.0, 50), (3.0, 67)];

/// One update of an exactness schedule: which of two posteriors takes it,
/// which of four centres, and which profile (three Gaussians, then an
/// all-zero and an all-NaN profile that must be rejected).
fn arb_field_op() -> impl Strategy<Value = (bool, usize, usize)> {
    (any::<bool>(), 0usize..4, 0usize..5)
}

proptest! {
    /// The shipped dense update (shared distance field, normalization
    /// folded into the next update, lane-ordered sum) is bit-identical to
    /// the scalar oracle for every grid width: same outcome, cells, mean
    /// and entropy after every step. Two posteriors share one field, and
    /// the field is rebuilt exactly when the centre changes.
    #[test]
    fn fused_update_is_bit_identical_to_scalar_oracle(
        width in 0usize..4,
        xs in proptest::collection::vec(-20.0..220.0f64, 2),
        ys in proptest::collection::vec(-20.0..220.0f64, 2),
        means in proptest::collection::vec(2.0..90.0f64, 3),
        sigma in 0.25..25.0f64,
        step in 0.02..0.5f64,
        ops in proptest::collection::vec(arb_field_op(), 1..10),
    ) {
        let (res, nx) = EXACTNESS_RESOLUTIONS[width];
        // Centres on a 2 × 2 lattice share an x or a y coordinate, so a
        // memo key that missed either would reuse a wrong field.
        let centres: Vec<Point> = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
            .collect();
        let mut profiles: Vec<RadialProfile> = means
            .iter()
            .map(|&mean| {
                DistancePdf::Gaussian { mean, sigma }
                    .radial_profile(step, 340.0)
                    .offset(CONSTRAINT_FLOOR)
            })
            .collect();
        profiles.push(RadialProfile::from_fn(step, 340.0, |_| 0.0));
        profiles.push(RadialProfile::from_fn(step, 340.0, |_| f64::NAN));
        let fresh = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        prop_assert_eq!(fresh.nx(), nx);
        let mut shipped = [fresh.clone(), fresh.clone()];
        let mut oracle = [fresh.clone(), fresh];
        let mut field = DistanceField::new();
        let mut last_centre = None;
        for (second, c, p) in ops {
            let k = usize::from(second);
            let builds = field.builds();
            let got = shipped[k].apply_radial_constraint_with(centres[c], &profiles[p], &mut field);
            let want = oracle[k].apply_radial_constraint_scalar(centres[c], &profiles[p]);
            prop_assert_eq!(got, want);
            if p >= 3 {
                prop_assert_eq!(got, ConstraintOutcome::Rejected);
            }
            let rebuilt = last_centre != Some(centres[c]);
            prop_assert_eq!(field.builds() - builds, u64::from(rebuilt));
            last_centre = Some(centres[c]);
            let (s, o) = (&shipped[k], &oracle[k]);
            for (i, (a, b)) in s.cells().zip(o.cells()).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "cell {}: {:e} vs {:e}", i, a, b);
            }
            prop_assert_eq!(s.mean().x.to_bits(), o.mean().x.to_bits());
            prop_assert_eq!(s.mean().y.to_bits(), o.mean().y.to_bits());
            prop_assert_eq!(s.entropy().to_bits(), o.entropy().to_bits());
            prop_assert_eq!(s, o);
        }
    }
}

proptest! {
    /// The fused kernel, through the grid's own distance-field memo, is
    /// bit-identical to the scalar reference: same posterior bytes for
    /// arbitrary beacon geometry, profile shape and grid resolution. This
    /// is the contract that lets the fused kernel be the only dense update
    /// without perturbing goldens.
    #[test]
    fn simd_f64_kernel_is_bit_identical_to_scalar(
        cx in -20.0..220.0f64,
        cy in -20.0..220.0f64,
        res in 1.0..8.0f64,
        mean in 2.0..90.0f64,
        sigma in 0.25..25.0f64,
        step in 0.02..0.5f64,
    ) {
        let pdf = DistancePdf::Gaussian { mean, sigma };
        let profile = pdf.radial_profile(step, 340.0).offset(CONSTRAINT_FLOOR);
        let center = Point::new(cx, cy);
        let mut scalar = PositionGrid::new(GridConfig::new(Area::square(200.0), res));
        let mut simd = scalar.clone();
        for _ in 0..2 {
            let oa = scalar.apply_radial_constraint_scalar(center, &profile);
            let ob = simd.apply_radial_constraint(center, &profile);
            prop_assert_eq!(oa, ob);
            for (ix, (a, b)) in scalar.cells().zip(simd.cells()).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "cell {}: scalar {:e} vs simd {:e}", ix, a, b
                );
            }
        }
    }

    /// The adaptive posterior conserves probability mass to 1e-9 under
    /// arbitrary accepted constraint sequences, through refinement and
    /// coarsening alike.
    #[test]
    fn adaptive_posterior_conserves_mass(
        centers in proptest::collection::vec(arb_in_area(), 1..8),
        means in proptest::collection::vec(5.0..80.0f64, 1..8),
        factor in 2u32..6,
    ) {
        let mut grid = AdaptiveGrid::new(GridConfig::new(Area::square(200.0), 2.0), factor, 2.0);
        for (c, m) in centers.iter().zip(means.iter().cycle()) {
            let pdf = DistancePdf::Gaussian { mean: *m, sigma: 6.0 };
            let profile = pdf.radial_profile(0.1, 340.0).offset(CONSTRAINT_FLOOR);
            grid.apply_radial_constraint(*c, &profile);
            prop_assert!(
                (grid.total_mass() - 1.0).abs() < 1e-9,
                "mass {} after constraint", grid.total_mass()
            );
        }
    }

    /// Refinement correctness: where the posterior concentrates, the
    /// adaptive grid's mean tracks the dense grid's mean to within one
    /// fine cell, despite touching a fraction of the cells.
    #[test]
    fn adaptive_mean_tracks_dense_grid(seed in 0u64..40) {
        let area = Area::square(200.0);
        let robot = Point::new(100.0, 100.0);
        let beacons = [
            Point::new(85.0, 100.0),
            Point::new(112.0, 108.0),
            Point::new(100.0, 86.0),
            Point::new(90.0, 112.0),
        ];
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(seed).stream("cal", 0),
        );
        let cfg = GridConfig::new(area, 2.0);
        let radial = radial_constraints_for_grid(&table, &cfg);
        let mut dense = PositionGrid::new(cfg);
        let mut adaptive = AdaptiveGrid::new(cfg, 4, 2.0);
        let mut rng = SeedSplitter::new(seed).stream("probe", 0);
        let mut applied = 0u32;
        for b in beacons {
            let rssi = ch.sample_rssi(robot.distance_to(b), &mut rng);
            if let Some(profile) = radial.lookup(rssi) {
                let oa = dense.apply_radial_constraint(b, profile);
                let (ob, _) = adaptive.apply_radial_constraint(b, profile);
                prop_assert_eq!(oa, ob);
                if oa == ConstraintOutcome::Applied {
                    applied += 1;
                }
            }
        }
        if applied >= 3 {
            prop_assert!(
                dense.mean().distance_to(adaptive.mean()) <= cfg.resolution_m,
                "dense {:?} vs adaptive {:?}", dense.mean(), adaptive.mean()
            );
        }
    }
}

/// One step of an arbitrary localizer history for the entropy-memo test.
#[derive(Debug, Clone, Copy)]
enum MemoOp {
    /// A beacon at `(x, y)` heard at `rssi` dBm, through the radial path
    /// (or the generic closure path on a dense grid when `generic`).
    Beacon {
        x: f64,
        y: f64,
        rssi: f64,
        generic: bool,
    },
    /// Ask for the entropy (fills the memo).
    Query,
    /// Back to the uniform prior.
    Reset,
    /// Remember the current posterior for a later `Restore`.
    Save,
    /// Restore the remembered posterior (cells or tiles).
    Restore,
    /// Continue with a clone (which carries the memo along).
    Clone,
}

fn arb_beacon_op() -> impl Strategy<Value = MemoOp> {
    (arb_in_area(), -95.0..-35.0f64, any::<bool>()).prop_map(|(p, rssi, generic)| MemoOp::Beacon {
        x: p.x,
        y: p.y,
        rssi,
        generic,
    })
}

/// Beacons and queries listed twice: histories should mostly grow the
/// posterior and look at it, with resets, restores and clones between.
fn arb_memo_op() -> impl Strategy<Value = MemoOp> {
    prop_oneof![
        arb_beacon_op(),
        arb_beacon_op(),
        Just(MemoOp::Query),
        Just(MemoOp::Query),
        Just(MemoOp::Reset),
        Just(MemoOp::Save),
        Just(MemoOp::Restore),
        Just(MemoOp::Clone),
    ]
}

/// A fresh, unmemoized scan of the localizer's posterior.
fn scanned_entropy(loc: &BayesianLocalizer) -> f64 {
    match loc.posterior() {
        Posterior::Dense(g) => g.entropy(),
        Posterior::Adaptive(g) => g.entropy(),
    }
}

proptest! {
    /// The memoized entropy is the entropy of the current posterior,
    /// bit for bit, under any interleaving of beacons, resets, restores,
    /// clones and queries — on the dense and the adaptive posterior. The
    /// memo is not state: a queried localizer equals its unqueried clone.
    #[test]
    fn entropy_memo_tracks_every_posterior_mutation(
        ops in proptest::collection::vec(arb_memo_op(), 1..40),
        seed in 0u64..50,
    ) {
        let ch = RfChannel::default();
        let table = calibrate(
            &ch,
            &CalibrationConfig { samples_per_distance: 30, ..Default::default() },
            &mut SeedSplitter::new(seed).stream("cal", 0),
        );
        let grid = GridConfig::new(Area::square(200.0), 4.0);
        let radial = radial_constraints_for_grid(&table, &grid);
        for adaptive in [false, true] {
            let pipeline = GridPipeline { adaptive, ..GridPipeline::default() };
            // `eager` is checked after every step; `lazy` only when the
            // schedule queries it, so its memo may outlive several steps.
            let mut eager = BayesianLocalizer::with_pipeline(grid, pipeline);
            let mut lazy = eager.clone();
            let mut saved = eager.posterior().clone();
            for op in &ops {
                for loc in [&mut eager, &mut lazy] {
                    match *op {
                        MemoOp::Beacon { x, y, rssi, generic } => {
                            let (b, rssi) = (Point::new(x, y), Dbm::new(rssi));
                            if generic && !adaptive {
                                loc.observe_beacon(&table, b, rssi);
                            } else {
                                loc.observe_beacon_radial(&radial, b, rssi);
                            }
                        }
                        MemoOp::Query => {
                            let h = loc.entropy();
                            prop_assert_eq!(h.to_bits(), scanned_entropy(loc).to_bits());
                        }
                        MemoOp::Reset => loc.reset(),
                        MemoOp::Save => saved = loc.posterior().clone(),
                        MemoOp::Restore => match &saved {
                            Posterior::Dense(g) => {
                                let cells: Vec<f64> = g.cells().collect();
                                loc.restore_posterior_cells(&cells).expect("same grid");
                            }
                            Posterior::Adaptive(g) => {
                                loc.restore_posterior_tiles(g.tiles().to_vec()).expect("same grid");
                            }
                        },
                        MemoOp::Clone => *loc = loc.clone(),
                    }
                }
                let unqueried = eager.clone();
                prop_assert_eq!(
                    eager.entropy().to_bits(),
                    scanned_entropy(&eager).to_bits(),
                    "stale memo after {:?} (adaptive: {})", op, adaptive
                );
                prop_assert_eq!(&eager, &unqueried);
                prop_assert_eq!(&eager, &lazy);
            }
        }
    }
}
