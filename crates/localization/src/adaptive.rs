//! Coarse-to-fine adaptive position posterior.
//!
//! A windowed Bayesian update spends almost all of its time multiplying
//! constraints into cells that hold (and will keep holding) negligible
//! mass: after two or three beacons the posterior concentrates in a small
//! neighbourhood, and at window start it is uniform — where coarse cells
//! represent it exactly. [`AdaptiveGrid`] exploits both ends: the posterior
//! is stored as a lattice of coarse **tiles** (each covering up to
//! `factor × factor` fine cells), a tile is **refined** to per-fine-cell
//! resolution only once its mass exceeds `refine_factor ×` its uniform
//! share, and refined tiles whose mass collapses below the inverse
//! threshold are **coarsened** back. Constraints are evaluated once per
//! coarse tile (at its centroid) and per fine cell only inside refined
//! tiles, which is where the ≥ 5× cells-touched reduction in
//! `BENCH_grid.json` comes from.
//!
//! # Invariants
//!
//! - **Mass conservation**: refining distributes a tile's mass uniformly
//!   over its fine cells and coarsening sums them back, so total mass is
//!   preserved to rounding (pinned at 1e-9 by proptest) across any
//!   refine/coarsen sequence; every committed update renormalizes to 1.
//! - **Uniform-prior exactness**: `reset_uniform` gives each tile mass
//!   proportional to its fine-cell count, which equals the dense uniform
//!   prior exactly (edge tiles are smaller and get proportionally less).
//! - **Rejection semantics**: like [`PositionGrid`], a constraint whose
//!   product annihilates the posterior is rejected leaving it untouched.
//!
//! [`PositionGrid`]: crate::grid::PositionGrid

use serde::{Deserialize, Serialize};

use cocoa_net::calibration::RadialProfile;
use cocoa_net::geometry::Point;

use crate::grid::{ConstraintOutcome, GridConfig};

/// One coarse tile of the adaptive posterior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Tile {
    /// Total mass of the tile, represented at coarse resolution.
    Coarse(f64),
    /// Per-fine-cell masses, row-major within the tile.
    Refined(Vec<f64>),
}

/// Per-operation cost accounting of an adaptive update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveOpStats {
    /// Cells (coarse tiles count once, refined tiles per fine cell) whose
    /// constraint weight was evaluated.
    pub cells_touched: u64,
    /// Fine cells materialized by refinement during this operation.
    pub cells_refined: u64,
}

/// The coarse-to-fine adaptive posterior. Mirrors the query surface of
/// [`PositionGrid`](crate::grid::PositionGrid) (mean / entropy / mass) so
/// the Bayesian layer can swap it in behind the `adaptive` pipeline knob.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveGrid {
    config: GridConfig,
    /// Fine lattice dimensions (identical to the dense grid's).
    nx: usize,
    ny: usize,
    /// Tile lattice dimensions.
    tx: usize,
    ty: usize,
    /// Fine cells per tile side (edge tiles may be smaller).
    factor: usize,
    /// Refinement threshold multiplier (> 1).
    refine_factor: f64,
    /// Tiles, row-major (`tyi * tx + txi`).
    tiles: Vec<Tile>,
    /// Fine-cell-centre axes.
    #[serde(skip)]
    xs: Vec<f64>,
    #[serde(skip)]
    ys: Vec<f64>,
    /// Reusable unnormalized-product buffer (per-tile slots, sequential).
    #[serde(skip)]
    scratch: Vec<f64>,
}

/// Equality is over the posterior (config + tile state); scratch and the
/// derived axes are excluded.
impl PartialEq for AdaptiveGrid {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.factor == other.factor
            && self.refine_factor == other.refine_factor
            && self.tiles == other.tiles
    }
}

impl AdaptiveGrid {
    /// Creates an adaptive grid at the uniform prior.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or `refine_factor` is not > 1 and finite.
    pub fn new(config: GridConfig, factor: u32, refine_factor: f64) -> Self {
        assert!(factor >= 1, "coarse factor must be at least 1");
        assert!(
            refine_factor.is_finite() && refine_factor > 1.0,
            "refine factor must exceed 1"
        );
        let nx = (config.area.width() / config.resolution_m).ceil() as usize;
        let ny = (config.area.height() / config.resolution_m).ceil() as usize;
        let factor = factor as usize;
        let tx = nx.div_ceil(factor);
        let ty = ny.div_ceil(factor);
        let r = config.resolution_m;
        let xs = (0..nx)
            .map(|ix| config.area.x_min + (ix as f64 + 0.5) * r)
            .collect();
        let ys = (0..ny)
            .map(|iy| config.area.y_min + (iy as f64 + 0.5) * r)
            .collect();
        let mut g = AdaptiveGrid {
            config,
            nx,
            ny,
            tx,
            ty,
            factor,
            refine_factor,
            tiles: vec![Tile::Coarse(0.0); tx * ty],
            xs,
            ys,
            scratch: Vec::new(),
        };
        g.reset_uniform();
        g
    }

    /// The configuration of the underlying fine lattice.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Number of fine cells the posterior resolves to when fully refined.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Fine-cell ranges covered by tile `(txi, tyi)`.
    #[inline]
    fn tile_span(
        &self,
        txi: usize,
        tyi: usize,
    ) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let x0 = txi * self.factor;
        let y0 = tyi * self.factor;
        (
            x0..(x0 + self.factor).min(self.nx),
            y0..(y0 + self.factor).min(self.ny),
        )
    }

    /// Fine-cell count of tile `(txi, tyi)` (edge tiles are smaller).
    #[inline]
    fn tile_cells(&self, txi: usize, tyi: usize) -> usize {
        let (sx, sy) = self.tile_span(txi, tyi);
        sx.len() * sy.len()
    }

    /// Centroid of tile `(txi, tyi)` — the mean of its fine-cell centres.
    fn tile_centroid(&self, txi: usize, tyi: usize) -> Point {
        let (sx, sy) = self.tile_span(txi, tyi);
        let cx = (self.xs[sx.start] + self.xs[sx.end - 1]) * 0.5;
        let cy = (self.ys[sy.start] + self.ys[sy.end - 1]) * 0.5;
        Point::new(cx, cy)
    }

    /// Resets to the uniform prior — all tiles coarse, each holding its
    /// fine-cell count's share of the mass (exactly the dense uniform
    /// prior, tile-aggregated).
    pub fn reset_uniform(&mut self) {
        let per_cell = 1.0 / (self.nx * self.ny) as f64;
        for tyi in 0..self.ty {
            for txi in 0..self.tx {
                self.tiles[tyi * self.tx + txi] =
                    Tile::Coarse(self.tile_cells(txi, tyi) as f64 * per_cell);
            }
        }
    }

    /// Multiplies a radial constraint into the posterior, renormalizes, and
    /// adapts the resolution: refined where mass concentrated, coarsened
    /// where it drained. Coarse tiles evaluate the profile once at their
    /// centroid; refined tiles per fine cell.
    pub fn apply_radial_constraint(
        &mut self,
        center: Point,
        profile: &RadialProfile,
    ) -> (ConstraintOutcome, AdaptiveOpStats) {
        let mut stats = AdaptiveOpStats::default();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let inv_step = profile.inv_step();
        let table = profile.lane_table();
        let mut total = 0.0;
        // Pass 1: unnormalized products into per-tile scratch slots.
        for tyi in 0..self.ty {
            for txi in 0..self.tx {
                match &self.tiles[tyi * self.tx + txi] {
                    Tile::Coarse(m) => {
                        let c = self.tile_centroid(txi, tyi);
                        let t = c.distance_to(center) * inv_step;
                        let v = m * crate::kernel::lerp_table(table, t);
                        scratch.push(v);
                        total += v;
                        stats.cells_touched += 1;
                    }
                    Tile::Refined(cells) => {
                        let (sx, sy) = self.tile_span(txi, tyi);
                        let mut k = 0;
                        for iy in sy {
                            let dy = self.ys[iy] - center.y;
                            let dy2 = dy * dy;
                            for ix in sx.clone() {
                                let dx = self.xs[ix] - center.x;
                                let t = (dx * dx + dy2).sqrt() * inv_step;
                                let v = cells[k] * crate::kernel::lerp_table(table, t);
                                scratch.push(v);
                                total += v;
                                k += 1;
                            }
                        }
                        stats.cells_touched += cells.len() as u64;
                    }
                }
            }
        }
        if !total.is_finite() || total <= f64::MIN_POSITIVE * (self.nx * self.ny) as f64 {
            self.scratch = scratch;
            return (ConstraintOutcome::Rejected, stats);
        }
        // Pass 2: commit normalized masses and adapt resolution.
        let inv_total = 1.0 / total;
        let uniform_per_cell = 1.0 / (self.nx * self.ny) as f64;
        let mut slot = 0;
        for tyi in 0..self.ty {
            for txi in 0..self.tx {
                let n = self.tile_cells(txi, tyi);
                let uniform_mass = n as f64 * uniform_per_cell;
                let tile = &mut self.tiles[tyi * self.tx + txi];
                match tile {
                    Tile::Coarse(m) => {
                        let mass = scratch[slot] * inv_total;
                        slot += 1;
                        if n > 1 && mass > self.refine_factor * uniform_mass {
                            // Concentration: materialize fine cells with the
                            // mass split uniformly (mass- and centroid-
                            // conserving).
                            *tile = Tile::Refined(vec![mass / n as f64; n]);
                            stats.cells_refined += n as u64;
                        } else {
                            *m = mass;
                        }
                    }
                    Tile::Refined(cells) => {
                        let mut mass = 0.0;
                        for c in cells.iter_mut() {
                            *c = scratch[slot] * inv_total;
                            slot += 1;
                            mass += *c;
                        }
                        if mass < uniform_mass / self.refine_factor {
                            // Drained below interest: collapse back.
                            *tile = Tile::Coarse(mass);
                        }
                    }
                }
            }
        }
        self.scratch = scratch;
        (ConstraintOutcome::Applied, stats)
    }

    /// The posterior mean — coarse tiles contribute their mass at the tile
    /// centroid, refined tiles per fine cell.
    pub fn mean(&self) -> Point {
        let mut x = 0.0;
        let mut y = 0.0;
        for tyi in 0..self.ty {
            for txi in 0..self.tx {
                match &self.tiles[tyi * self.tx + txi] {
                    Tile::Coarse(m) => {
                        if *m > 0.0 {
                            let c = self.tile_centroid(txi, tyi);
                            x += m * c.x;
                            y += m * c.y;
                        }
                    }
                    Tile::Refined(cells) => {
                        let (sx, sy) = self.tile_span(txi, tyi);
                        let mut k = 0;
                        for iy in sy {
                            for ix in sx.clone() {
                                let p = cells[k];
                                if p > 0.0 {
                                    x += p * self.xs[ix];
                                    y += p * self.ys[iy];
                                }
                                k += 1;
                            }
                        }
                    }
                }
            }
        }
        Point::new(x, y)
    }

    /// Shannon entropy, nats, of the implied fine-lattice distribution (a
    /// coarse tile's mass counts as spread uniformly over its cells), so it
    /// is directly comparable to the dense grid's entropy and maximized at
    /// [`max_entropy`](Self::max_entropy) by the uniform prior.
    pub fn entropy(&self) -> f64 {
        let mut h = 0.0;
        for tyi in 0..self.ty {
            for txi in 0..self.tx {
                match &self.tiles[tyi * self.tx + txi] {
                    Tile::Coarse(m) => {
                        if *m > 0.0 {
                            let n = self.tile_cells(txi, tyi) as f64;
                            h -= m * (m / n).ln();
                        }
                    }
                    Tile::Refined(cells) => {
                        h -= cells
                            .iter()
                            .filter(|&&p| p > 0.0)
                            .map(|&p| p * p.ln())
                            .sum::<f64>();
                    }
                }
            }
        }
        h
    }

    /// The maximum possible entropy — `ln` of the fine cell count, same
    /// scale as the dense grid's.
    pub fn max_entropy(&self) -> f64 {
        ((self.nx * self.ny) as f64).ln()
    }

    /// Total probability mass (1.0 up to rounding; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| match t {
                Tile::Coarse(m) => *m,
                Tile::Refined(cells) => cells.iter().sum(),
            })
            .sum()
    }

    /// Implied per-fine-cell probability at `p` (0 outside the area).
    pub fn density_at(&self, p: Point) -> f64 {
        if !self.config.area.contains(p) {
            return 0.0;
        }
        let r = self.config.resolution_m;
        let ix = (((p.x - self.config.area.x_min) / r) as usize).min(self.nx - 1);
        let iy = (((p.y - self.config.area.y_min) / r) as usize).min(self.ny - 1);
        let (txi, tyi) = (ix / self.factor, iy / self.factor);
        match &self.tiles[tyi * self.tx + txi] {
            Tile::Coarse(m) => m / self.tile_cells(txi, tyi) as f64,
            Tile::Refined(cells) => {
                let (sx, _) = self.tile_span(txi, tyi);
                cells[(iy % self.factor) * sx.len() + (ix % self.factor)]
            }
        }
    }

    /// Number of currently refined tiles (exposed for tests and telemetry).
    pub fn refined_tiles(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| matches!(t, Tile::Refined(_)))
            .count()
    }

    /// The raw tile state, row-major — the unit of snapshot persistence.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Restores checkpointed tile state.
    ///
    /// # Errors
    ///
    /// Returns a message if the tile count or any refined tile's cell
    /// count does not match this grid's layout; the posterior is then
    /// left untouched.
    pub fn restore_tiles(&mut self, tiles: Vec<Tile>) -> Result<(), String> {
        if tiles.len() != self.tiles.len() {
            return Err(format!(
                "checkpointed posterior has {} tiles, the grid has {}",
                tiles.len(),
                self.tiles.len()
            ));
        }
        for (i, t) in tiles.iter().enumerate() {
            if let Tile::Refined(cells) = t {
                let (txi, tyi) = (i % self.tx, i / self.tx);
                let expected = self.tile_cells(txi, tyi);
                if cells.len() != expected {
                    return Err(format!(
                        "checkpointed tile {i} has {} cells, the grid's has {expected}",
                        cells.len()
                    ));
                }
            }
        }
        self.tiles = tiles;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoa_net::geometry::Area;

    fn profile(mean: f64, sigma: f64) -> RadialProfile {
        RadialProfile::from_fn(0.25, 300.0, move |d| (-((d - mean) / sigma).powi(2)).exp())
            .offset(1e-6)
    }

    fn grid() -> AdaptiveGrid {
        AdaptiveGrid::new(GridConfig::new(Area::square(200.0), 2.0), 4, 2.0)
    }

    #[test]
    fn uniform_prior_matches_dense_statistics() {
        let g = grid();
        assert!((g.total_mass() - 1.0).abs() < 1e-9);
        assert!(g.mean().distance_to(Point::new(100.0, 100.0)) < 1e-9);
        assert!((g.entropy() - g.max_entropy()).abs() < 1e-9);
        assert_eq!(g.refined_tiles(), 0);
        assert_eq!(g.num_cells(), 100 * 100);
    }

    #[test]
    fn constraints_concentrate_refine_and_conserve_mass() {
        let mut g = grid();
        let b1 = Point::new(80.0, 100.0);
        let b2 = Point::new(120.0, 100.0);
        let b3 = Point::new(100.0, 130.0);
        let mut touched = 0;
        for (b, d) in [(b1, 25.0), (b2, 25.0), (b3, 15.0)] {
            let (out, stats) = g.apply_radial_constraint(b, &profile(d, 3.0));
            assert_eq!(out, ConstraintOutcome::Applied);
            touched += stats.cells_touched;
            assert!((g.total_mass() - 1.0).abs() < 1e-9);
        }
        assert!(
            g.refined_tiles() > 0,
            "mass concentration triggered refinement"
        );
        // The three rings intersect near (100, 115) — same fixture as the
        // dense-grid test, which localizes within 5 m there.
        assert!(g.mean().distance_to(Point::new(100.0, 115.0)) < 6.0);
        // Far fewer evaluations than three dense passes.
        assert!(touched < 3 * g.num_cells() as u64 / 2, "touched {touched}");
    }

    #[test]
    fn rejection_leaves_posterior_untouched() {
        let mut g = grid();
        g.apply_radial_constraint(Point::new(50.0, 50.0), &profile(20.0, 5.0));
        let before = g.clone();
        let zero = RadialProfile::from_fn(1.0, 300.0, |_| 0.0);
        let (out, _) = g.apply_radial_constraint(Point::new(50.0, 50.0), &zero);
        assert_eq!(out, ConstraintOutcome::Rejected);
        assert_eq!(g, before);
        let nan = RadialProfile::from_fn(1.0, 300.0, |_| f64::NAN);
        let (out, _) = g.apply_radial_constraint(Point::new(50.0, 50.0), &nan);
        assert_eq!(out, ConstraintOutcome::Rejected);
        assert_eq!(g, before);
    }

    #[test]
    fn drained_tiles_coarsen_back_and_reset_restores_uniform() {
        let mut g = grid();
        let p = profile(30.0, 4.0);
        let center = Point::new(60.0, 60.0);
        for _ in 0..4 {
            g.apply_radial_constraint(center, &p);
        }
        let refined_peak = g.refined_tiles();
        assert!(refined_peak > 0);
        // Pull the mass elsewhere; the old neighbourhood drains and coarsens.
        let elsewhere = profile(10.0, 3.0);
        for _ in 0..4 {
            g.apply_radial_constraint(Point::new(160.0, 160.0), &elsewhere);
        }
        assert!((g.total_mass() - 1.0).abs() < 1e-9);
        g.reset_uniform();
        assert_eq!(g.refined_tiles(), 0);
        assert!((g.entropy() - g.max_entropy()).abs() < 1e-9);
    }

    #[test]
    fn tiles_snapshot_round_trips() {
        let mut g = grid();
        g.apply_radial_constraint(Point::new(70.0, 130.0), &profile(25.0, 3.0));
        let tiles = g.tiles().to_vec();
        let mut fresh = grid();
        fresh.restore_tiles(tiles).expect("same layout");
        assert_eq!(fresh, g);
        assert_eq!(
            fresh.density_at(Point::new(70.0, 105.0)),
            g.density_at(Point::new(70.0, 105.0))
        );
    }

    #[test]
    fn restore_rejects_wrong_layout() {
        let mut g = grid();
        let before = g.clone();
        let err = g.restore_tiles(vec![Tile::Coarse(1.0)]).unwrap_err();
        assert!(err.contains("tiles"), "{err}");
        let mut tiles = g.tiles().to_vec();
        tiles[0] = Tile::Refined(vec![0.0; 3]);
        let err = g.restore_tiles(tiles).unwrap_err();
        assert!(err.contains("tile 0"), "{err}");
        assert_eq!(
            g, before,
            "a refused restore leaves the posterior untouched"
        );
    }
}
