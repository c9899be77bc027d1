//! The lane-packed grid-update kernel and the grid pipeline configuration.
//!
//! The Bayesian grid update is the per-robot hot path: every beacon
//! multiplies a radial constraint into a 10⁴-cell posterior. This module
//! holds the inner loop of that update on stable Rust with no
//! dependencies, no `unsafe`, and no `std::simd` — the loops are *shaped*
//! so LLVM's auto-vectorizer turns every step, including the profile
//! table lookup, into packed instructions (`vsqrtpd`/`vgatherqpd`/FMA on
//! AVX-512 with `-C target-cpu=native`).
//!
//! Three tricks make the whole loop vectorizable where a naive
//! formulation stays scalar:
//!
//! 1. **No int casts.** Rust's saturating `f64 as usize` blocks the loop
//!    vectorizer outright. The lattice coordinate is clamped in the
//!    *float* domain (`t.min(lastf)` — `t` is non-negative by
//!    construction) and converted to an index with the 2⁵² magic-bias
//!    trick: for integer-valued `tf ∈ [0, 2⁵²)`, the low mantissa bits of
//!    `tf + 2⁵²` are exactly `tf`, so `(tf + P52).to_bits() & mask` is a
//!    pure add/bitcast/and chain.
//! 2. **Power-of-two padded SoA tables** ([`LaneTable`]): `& mask`
//!    indexing lets the optimizer prove in-bounds without per-lane branch
//!    checks, and 8-byte elements are what hardware gathers load.
//! 3. **`#[inline(never)]`.** Inlined into a large caller frame the same
//!    loop fails vectorization; keeping the kernel a standalone function
//!    preserves the codegen. (At ~10⁴ iterations per call the call cost
//!    is noise.)
//!
//! # Bit-identity contract
//!
//! [`radial_product_row`] computes, per cell, the exact value the scalar
//! reference path ([`PositionGrid::apply_radial_constraint_scalar`]) computes —
//! `cell · lerp(profile, √(dx² + dy²) / step)`. The delta table caches
//! `fl(v[i+1] − v[i])`, the very difference the scalar path evaluates
//! inline; in the interior the float-clamped coordinate and fraction are
//! the same values the scalar index computation produces, and in the
//! clamp region both paths multiply a non-negative finite fraction by the
//! zero sentinel delta, adding an exact `+0.0`. The f64 lane kernel is
//! therefore **bit-identical** to the scalar path cell for cell for every
//! finite lattice coordinate — i.e. any physically representable
//! geometry. (An infinite coordinate needs cell-to-beacon distances
//! beyond ~1e154 m; there the scalar path propagates NaN while the lane
//! kernel clamps.) That is why the lane kernel is the only dense update
//! the simulation runs, with pinned-seed golden traces unchanged, while
//! the scalar path serves only as the test and benchmark oracle.
//!
//! [`PositionGrid::apply_radial_constraint_scalar`]: crate::grid::PositionGrid::apply_radial_constraint_scalar

use cocoa_net::calibration::LaneTable;
use serde::{Deserialize, Serialize};

/// The grid-update pipeline selection: the dense lane-kernel grid, or
/// adaptive resolution. Lives on the `Scenario` and is plumbed into every
/// Bayesian estimator; [`GridPipeline::default`] is the dense grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridPipeline {
    /// Maintain the posterior at coarse resolution and refine only tiles
    /// holding appreciable mass (see `AdaptiveGrid`).
    pub adaptive: bool,
    /// Adaptive mode: fine cells per coarse-tile side (≥ 1; 4 ⇒ one tile
    /// covers up to 16 fine cells).
    pub adaptive_coarse_factor: u32,
    /// Adaptive mode: a tile is refined when its mass exceeds this factor
    /// times the uniform tile mass, and collapsed again below its inverse.
    /// Must exceed 1.
    pub adaptive_refine_factor: f64,
}

impl Default for GridPipeline {
    fn default() -> Self {
        GridPipeline {
            adaptive: false,
            adaptive_coarse_factor: 4,
            adaptive_refine_factor: 2.0,
        }
    }
}

impl GridPipeline {
    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.adaptive_coarse_factor == 0 {
            return Err("adaptive coarse factor must be at least 1".into());
        }
        if !self.adaptive_refine_factor.is_finite() || self.adaptive_refine_factor <= 1.0 {
            return Err(format!(
                "adaptive refine factor {} must be finite and exceed 1",
                self.adaptive_refine_factor
            ));
        }
        Ok(())
    }

    /// Short name of the active pipeline, matching its `grid.kernel.*`
    /// telemetry counter.
    pub fn variant_name(&self) -> &'static str {
        if self.adaptive {
            "adaptive"
        } else {
            "simd"
        }
    }
}

/// 2⁵² — the magic bias for branchless f64 → index extraction: for an
/// integer-valued `tf` in `[0, 2⁵²)`, the low mantissa bits of `tf + P52`
/// are exactly `tf`.
const P52: f64 = 4503599627370496.0;

/// Scalar linear interpolation into a [`LaneTable`] at the pre-scaled
/// lattice coordinate `t = d / step` — the reference expression the lane
/// kernel reproduces, and the lookup the adaptive grid uses for scattered
/// (non-row) evaluations. Clamping is an index `min`; the zero sentinel
/// delta makes clamped lookups return the final sample exactly.
#[inline]
pub fn lerp_table(table: &LaneTable, t: f64) -> f64 {
    let val = table.val();
    let del = table.del();
    let i = (t as usize).min(table.last_index());
    val[i] + del[i] * (t - i as f64)
}

/// One grid row of the radial update:
/// `out[i] = cells[i] · lerp(table, √(dx2[i] + dy2) · inv_step)`.
///
/// Fully auto-vectorized (packed sqrt, gathers, FMA) via the float-domain
/// clamp + magic-bias indexing described in the module docs, and
/// bit-identical to the scalar reference expression for finite
/// coordinates. Kept out-of-line so the surrounding caller can't break
/// the vectorizable codegen.
///
/// # Panics
///
/// Panics if `cells` or `dx2` are shorter than `out`.
#[inline(never)]
pub fn radial_product_row(
    out: &mut [f64],
    cells: &[f64],
    dx2: &[f64],
    dy2: f64,
    inv_step: f64,
    table: &LaneTable,
) {
    let n = out.len();
    let cells = &cells[..n];
    let dx2 = &dx2[..n];
    let val = table.val();
    let del = table.del();
    let lastf = table.lastf();
    assert!(val.len().is_power_of_two());
    assert_eq!(val.len(), del.len());
    let mask = val.len() - 1;
    for ((o, &c), &d) in out.iter_mut().zip(cells).zip(dx2) {
        let t = ((d + dy2).sqrt() * inv_step).min(lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & mask;
        *o = c * (val[j] + del[j] * (t - tf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_table_matches_inline_interpolation() {
        let values = [1.0, 0.5, 0.25, 0.125, 0.0625];
        let table = LaneTable::from_values(&values);
        for k in 0..200 {
            let t = k as f64 * 0.05;
            let i = t as usize;
            let expected = if i + 1 >= values.len() {
                values[values.len() - 1]
            } else {
                values[i] + (values[i + 1] - values[i]) * (t - i as f64)
            };
            let got = lerp_table(&table, t);
            assert_eq!(got.to_bits(), expected.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn row_kernel_matches_scalar_expression_bitwise() {
        let values: Vec<f64> = (0..64).map(|k| (-(k as f64) * 0.11).exp() + 1e-6).collect();
        let table = LaneTable::from_values(&values);
        let inv_step = 1.0 / 0.35;
        let n = 13; // odd length: no lane-alignment assumption
        let cells: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 7.0)).collect();
        let dx2: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7 - 9.0).powi(2)).collect();
        let dy2 = 12.25;
        let mut out = vec![0.0; n];
        radial_product_row(&mut out, &cells, &dx2, dy2, inv_step, &table);
        for i in 0..n {
            let t = (dx2[i] + dy2).sqrt() * inv_step;
            let expected = cells[i] * lerp_table(&table, t);
            assert_eq!(out[i].to_bits(), expected.to_bits(), "cell {i}");
        }
    }

    #[test]
    fn row_kernel_clamps_like_scalar_reference() {
        // Distances far past the lattice end: both the clamped lane lookup
        // and the index-min scalar reference must return the final sample.
        let values: Vec<f64> = (0..7).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let table = LaneTable::from_values(&values);
        let n = 9;
        let cells = vec![0.125; n];
        let dx2: Vec<f64> = (0..n).map(|i| (1e3 + i as f64).powi(2)).collect();
        let mut out = vec![0.0; n];
        radial_product_row(&mut out, &cells, &dx2, 0.0, 1.0, &table);
        for (i, &o) in out.iter().enumerate() {
            let expected = 0.125 * values[values.len() - 1];
            assert_eq!(o.to_bits(), expected.to_bits(), "cell {i}");
        }
    }

    #[test]
    fn pipeline_validation() {
        let ok = GridPipeline::default();
        assert!(ok.validate().is_ok());
        assert_eq!(ok.variant_name(), "simd");
        let mut bad = ok;
        bad.adaptive_coarse_factor = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.adaptive_refine_factor = 1.0;
        assert!(bad.validate().is_err());
        let mut ad = ok;
        ad.adaptive = true;
        assert_eq!(ad.variant_name(), "adaptive");
    }
}
