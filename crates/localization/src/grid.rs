//! The discretized position posterior.
//!
//! The paper's algorithm (Eqs. 1–3, after Sichitiu & Ramadurai) maintains a
//! probability distribution of the robot's position over the bounding
//! rectangle of the deployment area, multiplies in one constraint per
//! received beacon, renormalizes (Bayesian inference), and finally takes
//! the distribution's mean as the position estimate. Like every Bayesian /
//! Markov localization implementation, we discretize the area into a grid.

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::RadialProfile;
use cocoa_net::geometry::{Area, Point};

use crate::kernel;

/// Grid discretization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// The deployment area the posterior covers (paper Eq. 1's bounds).
    pub area: Area,
    /// Cell side length, metres. 2 m over the paper's 200 m × 200 m field
    /// gives a 100 × 100 grid; the resolution ablation bench sweeps this.
    pub resolution_m: f64,
}

impl GridConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not strictly positive or exceeds the
    /// area's smaller side.
    pub fn new(area: Area, resolution_m: f64) -> Self {
        assert!(
            resolution_m > 0.0 && resolution_m.is_finite(),
            "resolution must be positive"
        );
        assert!(
            resolution_m <= area.width().min(area.height()),
            "resolution {resolution_m} m coarser than the area itself"
        );
        GridConfig { area, resolution_m }
    }
}

/// Outcome of multiplying a constraint into the posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOutcome {
    /// The posterior was updated and renormalized.
    Applied,
    /// The constraint would have annihilated the posterior (total mass
    /// ~zero) — the update was skipped and the old posterior kept. This
    /// happens when a "bad beacon" (paper Section 4.3.1) contradicts all
    /// prior mass.
    Rejected,
}

/// A probability mass function over grid cells covering the area.
///
/// The posterior is held as an unnormalized product `raw` and a pending
/// normalization `scale`: cell `i` has probability `fl(raw[i] · scale)`.
/// Every reader ([`cells`](Self::cells), [`mean`](Self::mean),
/// [`entropy`](Self::entropy), equality, …) sees that normalized value,
/// and the next update reads it as its prior, so renormalizing costs no
/// pass of its own (see [`crate::kernel`]).
///
/// # Examples
///
/// ```
/// use cocoa_localization::grid::{GridConfig, PositionGrid};
/// use cocoa_net::geometry::{Area, Point};
///
/// let mut grid = PositionGrid::new(GridConfig::new(Area::square(200.0), 2.0));
/// // A uniform prior's mean is the area's centre.
/// let c = grid.mean();
/// assert!((c.x - 100.0).abs() < 1e-9 && (c.y - 100.0).abs() < 1e-9);
/// // Concentrate mass near (50, 50).
/// grid.apply_constraint(|p| (-(p.distance_to(Point::new(50.0, 50.0))).powi(2) / 50.0).exp());
/// assert!(grid.mean().distance_to(Point::new(50.0, 50.0)) < 2.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PositionGrid {
    config: GridConfig,
    nx: usize,
    ny: usize,
    /// Unnormalized cell masses, row-major (`iy * nx + ix`).
    raw: Vec<f64>,
    /// The pending normalization: `1 / Σ raw` after an update, 1 after a
    /// reset or restore.
    scale: f64,
    /// Cell-centre x coordinates, indexed by `ix`.
    #[serde(skip)]
    xs: Vec<f64>,
    /// Cell-centre y coordinates, indexed by `iy`.
    #[serde(skip)]
    ys: Vec<f64>,
    /// Reusable buffer the next product is written to; swapped with `raw`
    /// when the update is applied, so the hot path allocates and copies
    /// nothing.
    #[serde(skip)]
    scratch: Vec<f64>,
    /// The distance-field memo of callers that bring none (see
    /// [`apply_radial_constraint`](Self::apply_radial_constraint)).
    #[serde(skip)]
    field: DistanceField,
}

/// The per-cell lattice coordinates `‖cell − centre‖ / step` of one
/// constraint centre on one grid geometry: the part of a radial update
/// that does not depend on the posterior.
///
/// Every receiver of a broadcast applies a constraint at the same centre,
/// so a run keeps one field and hands it to each
/// [`PositionGrid::apply_radial_constraint_with`]; only the first receiver
/// pays the `sqrt`s. It is a single-entry memo keyed by the exact bits of
/// (centre, grid geometry, profile step), so it is reused only where a
/// rebuild would produce the same bits. Derived data: never checkpointed,
/// compared or counted in [`GridStats`](crate::bayes::GridStats).
#[derive(Debug, Clone, Default)]
pub struct DistanceField {
    /// Bits of (centre x, centre y, area x-min, area y-min, resolution,
    /// nx, ny, inverse step) the field was built for.
    key: Option<[u64; 8]>,
    /// Lattice coordinates, row-major like the grid's cells.
    t: Vec<f64>,
    /// Per-column squared x-distances to the centre (build scratch).
    dx2: Vec<f64>,
    /// Fields built so far (memo misses).
    builds: u64,
}

impl DistanceField {
    /// An empty field; the first use builds it.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times the field has been (re)built — one per distinct
    /// (centre, geometry, step) in a row.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Points the memo at `center` on `grid` at `inv_step`. Returns `true`
    /// on a miss: the caller must then fill every row of `t` with
    /// [`kernel::product_building_field`] (`dx2` is filled and `t`
    /// sized).
    fn claim(&mut self, grid: &PositionGrid, center: Point, inv_step: f64) -> bool {
        let area = &grid.config.area;
        let key = [
            center.x.to_bits(),
            center.y.to_bits(),
            area.x_min.to_bits(),
            area.y_min.to_bits(),
            grid.config.resolution_m.to_bits(),
            grid.nx as u64,
            grid.ny as u64,
            inv_step.to_bits(),
        ];
        if self.key == Some(key) {
            return false;
        }
        fill_dx2(&mut self.dx2, &grid.xs, center.x);
        self.t.resize(grid.raw.len(), 0.0);
        self.key = Some(key);
        self.builds += 1;
        true
    }
}

/// Cells per block of the field-reading update: a multiple of 4 (so each
/// block ends on a lane boundary) small enough that the block's product is
/// still in L1 when [`kernel::LaneSum`] folds it.
const BLOCK: usize = 256;

/// Fills `dx2` with per-column squared x-distances to `cx`.
fn fill_dx2(dx2: &mut Vec<f64>, xs: &[f64], cx: f64) {
    dx2.clear();
    dx2.extend(xs.iter().map(|&x| {
        let dx = x - cx;
        dx * dx
    }));
}

/// Equality is over the normalized posterior itself; how it is split
/// between `raw` and `scale`, the scratch buffers, the distance-field memo
/// and the derived axis tables are excluded.
impl PartialEq for PositionGrid {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.nx == other.nx
            && self.ny == other.ny
            && self.cells().eq(other.cells())
    }
}

impl PositionGrid {
    /// Creates a grid initialized to the uniform prior — "in the beginning,
    /// a robot is equally likely to be in any position" (paper Section 2.2).
    pub fn new(config: GridConfig) -> Self {
        let nx = (config.area.width() / config.resolution_m).ceil() as usize;
        let ny = (config.area.height() / config.resolution_m).ceil() as usize;
        let n = nx * ny;
        let r = config.resolution_m;
        let xs = (0..nx)
            .map(|ix| config.area.x_min + (ix as f64 + 0.5) * r)
            .collect();
        let ys = (0..ny)
            .map(|iy| config.area.y_min + (iy as f64 + 0.5) * r)
            .collect();
        PositionGrid {
            config,
            nx,
            ny,
            raw: vec![1.0 / n as f64; n],
            scale: 1.0,
            xs,
            ys,
            scratch: Vec::with_capacity(n),
            field: DistanceField::new(),
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Resets to the uniform prior.
    pub fn reset_uniform(&mut self) {
        let v = 1.0 / self.raw.len() as f64;
        self.raw.fill(v);
        self.scale = 1.0;
    }

    /// Centre of cell `(ix, iy)`.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(self.xs[ix], self.ys[iy])
    }

    /// Commits the unnormalized product in `product` (total mass `total`)
    /// as the posterior, or rejects it as degenerate. Either way the
    /// buffer that is not the posterior becomes the next scratch.
    fn commit(&mut self, product: Vec<f64>, total: f64) -> ConstraintOutcome {
        if !total.is_finite() || total <= f64::MIN_POSITIVE * self.raw.len() as f64 {
            self.scratch = product;
            return ConstraintOutcome::Rejected;
        }
        self.scratch = std::mem::replace(&mut self.raw, product);
        self.scale = 1.0 / total;
        ConstraintOutcome::Applied
    }

    /// The scratch buffer sized to the grid. Every update path overwrites
    /// all of it, so only the length is established; no zero-fill pass is
    /// paid after the first call.
    fn take_scratch(&mut self) -> Vec<f64> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(self.raw.len(), 0.0);
        scratch
    }

    /// Multiplies `constraint(cell_center)` into every cell and
    /// renormalizes (paper Eq. 2).
    ///
    /// This is the generic (reference) path: it evaluates the closure at
    /// every cell centre. Constraints that depend on the cell only through
    /// its distance to a point should go through
    /// [`apply_radial_constraint`](Self::apply_radial_constraint).
    ///
    /// Returns [`ConstraintOutcome::Rejected`] — leaving the posterior
    /// untouched — if the product has (near-)zero total mass or is not
    /// finite.
    pub fn apply_constraint(&mut self, constraint: impl Fn(Point) -> f64) -> ConstraintOutcome {
        let mut scratch = self.take_scratch();
        let mut total = 0.0;
        for (iy, out) in scratch.chunks_exact_mut(self.nx).enumerate() {
            let y = self.ys[iy];
            let row = &self.raw[iy * self.nx..(iy + 1) * self.nx];
            for ((dst, &raw), &x) in out.iter_mut().zip(row).zip(&self.xs) {
                let v = (raw * self.scale) * constraint(Point::new(x, y));
                *dst = v;
                total += v;
            }
        }
        self.commit(scratch, total)
    }

    /// Multiplies a radial constraint — `profile.density(‖cell − center‖)`
    /// — into every cell and renormalizes, using the grid's own
    /// distance-field memo.
    ///
    /// Callers that apply the same centre to many posteriors (every
    /// receiver of one broadcast) should share one [`DistanceField`]
    /// through [`apply_radial_constraint_with`](Self::apply_radial_constraint_with)
    /// instead; the result is the same either way.
    pub fn apply_radial_constraint(
        &mut self,
        center: Point,
        profile: &RadialProfile,
    ) -> ConstraintOutcome {
        let mut field = std::mem::take(&mut self.field);
        let outcome = self.apply_radial_constraint_with(center, profile, &mut field);
        self.field = field;
        outcome
    }

    /// The fast path of the Bayesian update: multiplies
    /// `profile.density(‖cell − center‖)` into every cell and
    /// renormalizes, reading the cell distances from `field` (rebuilt
    /// there only if it holds another centre, geometry or step).
    ///
    /// One pass over the grid: [`kernel::product_from_field`] reads the
    /// pending normalization and the cell's distance and looks the density
    /// up in a pre-sampled 1-D [`RadialProfile`] instead of a per-cell
    /// `exp`/histogram evaluation, a block of cells at a time, and
    /// [`kernel::LaneSum`] folds each block into the total while it is in
    /// cache. On a memo miss, [`kernel::product_building_field`] computes
    /// the distances row by row in the same pass and leaves them in
    /// `field`. All buffers are persistent, so a beacon update allocates
    /// nothing.
    ///
    /// Bit-identical to
    /// [`apply_radial_constraint_scalar`](Self::apply_radial_constraint_scalar)
    /// (see [`crate::kernel`]), and equivalent within float rounding to
    /// `apply_constraint(|p| profile.density(p.distance_to(center)))`,
    /// including the [`ConstraintOutcome::Rejected`] behaviour.
    pub fn apply_radial_constraint_with(
        &mut self,
        center: Point,
        profile: &RadialProfile,
        field: &mut DistanceField,
    ) -> ConstraintOutcome {
        let inv_step = profile.inv_step();
        let table = profile.lane_table();
        let mut out = self.take_scratch();
        let mut sum = kernel::LaneSum::default();
        if field.claim(self, center, inv_step) {
            for (iy, &y) in self.ys.iter().enumerate() {
                let cells = iy * self.nx..(iy + 1) * self.nx;
                let dy = y - center.y;
                let row = kernel::RowGeometry {
                    dx2: &field.dx2,
                    dy2: dy * dy,
                    inv_step,
                };
                kernel::product_building_field(
                    &mut out[cells.clone()],
                    &mut field.t[cells.clone()],
                    &self.raw[cells.clone()],
                    self.scale,
                    row,
                    table,
                );
                sum.advance(&out, cells.end);
            }
        } else {
            for start in (0..out.len()).step_by(BLOCK) {
                let cells = start..(start + BLOCK).min(out.len());
                kernel::product_from_field(
                    &mut out[cells.clone()],
                    &self.raw[cells.clone()],
                    self.scale,
                    &field.t[cells.clone()],
                    table,
                );
                sum.advance(&out, cells.end);
            }
        }
        let total = sum.finish(&out);
        self.commit(out, total)
    }

    /// The scalar reference for
    /// [`apply_radial_constraint`](Self::apply_radial_constraint): per row,
    /// a `sqrt` per cell into a row buffer, then a per-cell
    /// [`RadialProfile::density_scaled`] lookup times the normalized prior
    /// cell, and a separate four-lane sum pass over the product. It is the
    /// bit-identity oracle the fused kernel is tested and benchmarked
    /// against; no simulation path calls it.
    pub fn apply_radial_constraint_scalar(
        &mut self,
        center: Point,
        profile: &RadialProfile,
    ) -> ConstraintOutcome {
        let mut scratch = self.take_scratch();
        let mut dx2 = Vec::new();
        fill_dx2(&mut dx2, &self.xs, center.x);
        let mut row_t = vec![0.0; self.nx];
        let inv_step = profile.inv_step();
        for (iy, out) in scratch.chunks_exact_mut(self.nx).enumerate() {
            let dy = self.ys[iy] - center.y;
            let dy2 = dy * dy;
            let row = &self.raw[iy * self.nx..(iy + 1) * self.nx];
            for (t, &dx2) in row_t.iter_mut().zip(&dx2) {
                *t = (dx2 + dy2).sqrt() * inv_step;
            }
            for ((dst, &raw), &t) in out.iter_mut().zip(row).zip(&row_t) {
                *dst = (raw * self.scale) * profile.density_scaled(t);
            }
        }
        let total = kernel::sum_4lane(&scratch);
        self.commit(scratch, total)
    }

    /// The posterior mean (paper Eq. 3) — the position estimate.
    pub fn mean(&self) -> Point {
        let mut x = 0.0;
        let mut y = 0.0;
        for (iy, row) in self.raw.chunks_exact(self.nx).enumerate() {
            for (ix, &raw) in row.iter().enumerate() {
                let p = raw * self.scale;
                if p > 0.0 {
                    let c = self.cell_center(ix, iy);
                    x += p * c.x;
                    y += p * c.y;
                }
            }
        }
        Point::new(x, y)
    }

    /// The centre of the highest-probability cell (MAP estimate).
    pub fn map_estimate(&self) -> Point {
        let (idx, _) = self
            .cells()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |best, (i, v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            });
        self.cell_center(idx % self.nx, idx / self.nx)
    }

    /// Number of cells in the grid.
    pub fn num_cells(&self) -> usize {
        self.raw.len()
    }

    /// The maximum possible posterior entropy, nats — attained by the
    /// uniform prior. The entropy watchdog compares against this.
    pub fn max_entropy(&self) -> f64 {
        (self.raw.len() as f64).ln()
    }

    /// Shannon entropy of the posterior, nats. The uniform prior maximizes
    /// it; a confident fix approaches zero.
    pub fn entropy(&self) -> f64 {
        -self
            .cells()
            .filter(|&p| p > 0.0)
            .map(|p| p * p.ln())
            .sum::<f64>()
    }

    /// Total probability mass (1.0 up to rounding; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.cells().sum()
    }

    /// The normalized cell probabilities, row-major (`iy * nx + ix`).
    pub fn cells(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let scale = self.scale;
        self.raw.iter().map(move |&v| v * scale)
    }

    /// Overwrites the posterior with checkpointed cell probabilities.
    ///
    /// # Errors
    ///
    /// Returns a message naming both counts if `cells` does not match this
    /// grid's cell count; the posterior is then left untouched.
    pub fn restore_cells(&mut self, cells: &[f64]) -> Result<(), String> {
        if cells.len() != self.raw.len() {
            return Err(format!(
                "checkpointed posterior has {} cells, the {}×{} grid has {}",
                cells.len(),
                self.nx,
                self.ny,
                self.raw.len()
            ));
        }
        self.raw.copy_from_slice(cells);
        self.scale = 1.0;
        Ok(())
    }

    /// Probability of the cell containing `p` (0 outside the area).
    pub fn density_at(&self, p: Point) -> f64 {
        if !self.config.area.contains(p) {
            return 0.0;
        }
        let r = self.config.resolution_m;
        let ix = (((p.x - self.config.area.x_min) / r) as usize).min(self.nx - 1);
        let iy = (((p.y - self.config.area.y_min) / r) as usize).min(self.ny - 1);
        self.raw[iy * self.nx + ix] * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(res: f64) -> PositionGrid {
        PositionGrid::new(GridConfig::new(Area::square(200.0), res))
    }

    #[test]
    fn uniform_prior_sums_to_one_and_centres() {
        let g = grid(2.0);
        assert_eq!(g.nx(), 100);
        assert_eq!(g.ny(), 100);
        assert!((g.total_mass() - 1.0).abs() < 1e-9);
        assert!(g.mean().distance_to(Point::new(100.0, 100.0)) < 1e-9);
    }

    #[test]
    fn constraint_concentrates_mass() {
        let mut g = grid(2.0);
        let target = Point::new(60.0, 140.0);
        let before = g.entropy();
        let out = g.apply_constraint(|p| (-(p.distance_to(target) / 10.0).powi(2)).exp());
        assert_eq!(out, ConstraintOutcome::Applied);
        assert!((g.total_mass() - 1.0).abs() < 1e-9, "renormalized");
        assert!(g.entropy() < before, "entropy decreased");
        assert!(g.mean().distance_to(target) < 2.0);
        assert!(g.map_estimate().distance_to(target) < 2.0);
    }

    #[test]
    fn repeated_constraints_sharpen_the_posterior() {
        let mut g = grid(2.0);
        let target = Point::new(100.0, 100.0);
        let mut last_entropy = g.entropy();
        for _ in 0..3 {
            g.apply_constraint(|p| (-(p.distance_to(target) / 20.0).powi(2)).exp());
            let e = g.entropy();
            assert!(e < last_entropy);
            last_entropy = e;
        }
    }

    #[test]
    fn annihilating_constraint_is_rejected() {
        let mut g = grid(2.0);
        let before = g.clone();
        assert_eq!(g.apply_constraint(|_| 0.0), ConstraintOutcome::Rejected);
        assert_eq!(g, before, "posterior untouched after rejection");
        assert_eq!(
            g.apply_constraint(|_| f64::NAN),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before);
    }

    #[test]
    fn reset_restores_uniform() {
        let mut g = grid(2.0);
        g.apply_constraint(|p| p.x);
        g.reset_uniform();
        assert!(g.mean().distance_to(Point::new(100.0, 100.0)) < 1e-9);
        let max_entropy = (g.nx() as f64 * g.ny() as f64).ln();
        assert!((g.entropy() - max_entropy).abs() < 1e-9);
        assert!((g.max_entropy() - max_entropy).abs() < 1e-12);
        assert_eq!(g.num_cells(), g.nx() * g.ny());
    }

    #[test]
    fn cell_centers_tile_the_area() {
        let g = grid(2.0);
        let first = g.cell_center(0, 0);
        assert_eq!(first, Point::new(1.0, 1.0));
        let last = g.cell_center(g.nx() - 1, g.ny() - 1);
        assert_eq!(last, Point::new(199.0, 199.0));
    }

    #[test]
    fn density_at_reads_back_cells() {
        let mut g = grid(2.0);
        let target = Point::new(50.0, 50.0);
        g.apply_constraint(|p| (-(p.distance_to(target) / 5.0).powi(2)).exp());
        assert!(g.density_at(target) > g.density_at(Point::new(150.0, 150.0)));
        assert_eq!(g.density_at(Point::new(-1.0, 0.0)), 0.0);
    }

    #[test]
    fn intersection_of_two_ring_constraints_localizes() {
        // Two beacons at known positions, each constraining distance:
        // the posterior mean should land near an intersection point.
        let mut g = grid(1.0);
        let b1 = Point::new(80.0, 100.0);
        let b2 = Point::new(120.0, 100.0);
        let ring = |center: Point, radius: f64| {
            move |p: Point| {
                let d = p.distance_to(center);
                (-((d - radius) / 3.0).powi(2)).exp()
            }
        };
        g.apply_constraint(ring(b1, 25.0));
        g.apply_constraint(ring(b2, 25.0));
        // Intersections are near (100, 100 ± 15); a third beacon breaks the tie.
        let b3 = Point::new(100.0, 130.0);
        g.apply_constraint(ring(b3, 15.0));
        let est = g.mean();
        let expected = Point::new(100.0, 115.0);
        assert!(
            est.distance_to(expected) < 5.0,
            "estimate {est} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_rejected() {
        let _ = GridConfig::new(Area::square(200.0), 0.0);
    }

    #[test]
    fn radial_constraint_matches_generic_per_cell() {
        use cocoa_net::calibration::RadialProfile;
        let center = Point::new(63.0, 141.0);
        let profile = RadialProfile::from_fn(0.25, 300.0, |d| (-((d - 30.0) / 8.0).powi(2)).exp())
            .offset(1e-6);
        let mut generic = grid(2.0);
        let mut radial = grid(2.0);
        // Two rounds so the scratch-buffer reuse is also exercised.
        for _ in 0..2 {
            let a = generic.apply_constraint(|p| profile.density(p.distance_to(center)));
            let b = radial.apply_radial_constraint(center, &profile);
            assert_eq!(a, b);
            assert_eq!(a, ConstraintOutcome::Applied);
            for iy in 0..generic.ny() {
                for ix in 0..generic.nx() {
                    let pa = generic.density_at(generic.cell_center(ix, iy));
                    let pb = radial.density_at(radial.cell_center(ix, iy));
                    assert!(
                        (pa - pb).abs() < 1e-9,
                        "cell ({ix},{iy}): generic {pa} vs radial {pb}"
                    );
                }
            }
        }
        assert!((radial.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn radial_rejection_leaves_posterior_untouched() {
        use cocoa_net::calibration::RadialProfile;
        let mut g = grid(2.0);
        let target = Point::new(60.0, 140.0);
        g.apply_constraint(|p| (-(p.distance_to(target) / 10.0).powi(2)).exp());
        let before = g.clone();
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        assert_eq!(
            g.apply_radial_constraint(target, &zero),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before, "posterior untouched after radial rejection");
        let nan = RadialProfile::from_fn(1.0, 300.0, |_| f64::NAN);
        assert_eq!(
            g.apply_radial_constraint(target, &nan),
            ConstraintOutcome::Rejected
        );
        assert_eq!(g, before);
    }

    #[test]
    fn equality_ignores_scratch_state() {
        use cocoa_net::calibration::RadialProfile;
        let fresh = grid(2.0);
        let mut used = grid(2.0);
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        // A rejected update leaves the posterior alone but dirties scratch.
        used.apply_radial_constraint(Point::new(10.0, 10.0), &zero);
        assert_eq!(fresh, used);
    }
}
