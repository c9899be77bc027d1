//! The fused grid-update kernel.
//!
//! The Bayesian grid update is the per-robot hot path: every beacon
//! multiplies a radial constraint into a 10⁴-cell posterior. This module
//! holds the inner loops of that update on stable Rust with no
//! dependencies, no `unsafe`, and no `std::simd` — the loops are *shaped*
//! so LLVM's auto-vectorizer turns every step, including the profile
//! table lookup, into packed instructions (`vsqrtpd`/`vgatherqpd` on
//! AVX-512 with `-C target-cpu=native`).
//!
//! The update is split along what it depends on. A cell's lattice
//! coordinate `t = ‖cell − centre‖ / step` depends only on the constraint
//! centre, so every receiver of one broadcast shares one *distance field*
//! ([`DistanceField`]) and the `sqrt` is paid once per transmission, not
//! once per receiver:
//!
//! - [`product_building_field`] is the first receiver's pass over a grid
//!   row: it computes each `t`, stores it in the field and uses it at
//!   once, so the packed `sqrt` overlaps the table gathers;
//! - [`product_from_field`] is every later receiver's pass: it reads `t`
//!   from the field, applies the pending normalization and multiplies in
//!   the profile — no `sqrt`;
//! - [`LaneSum`] folds each written block into the new total while it is
//!   still in cache, so there is no separate sum pass, and the grid keeps
//!   the product unnormalized, so there is no normalizing copy either.
//!
//! Three tricks make the lookup loop vectorizable where a naive
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
//!    loop fails vectorization; keeping each kernel a standalone function
//!    preserves the codegen. (At ~10⁴ iterations per call the call cost
//!    is noise.)
//!
//! # Bit-identity contract
//!
//! The shipped update produces, cell for cell and in its returned total,
//! the exact bits of the scalar reference
//! ([`PositionGrid::apply_radial_constraint_scalar`]), which normalizes
//! eagerly and takes a `sqrt` per cell. Three things make that hold:
//!
//! 1. **The field expression.** [`product_building_field`] evaluates
//!    `√(dx² + dy²) · inv_step` with the reference's operands in the
//!    reference's order, and a field is only reused under the exact bits
//!    of (centre, grid geometry, step) it was built for.
//! 2. **`fl(raw · scale)`.** The reference stores
//!    `cell = fl(product · (1 / total))` after every update. The fused
//!    path keeps the product and `scale = 1 / total` instead, and the next
//!    update (and every reader) forms `fl(raw · scale)` — the same value,
//!    before multiplying in `lerp(t)`. In the interior the float-clamped
//!    coordinate and fraction are the values the scalar index computation
//!    produces; in the clamp region both multiply a non-negative finite
//!    fraction by the zero sentinel delta, adding an exact `+0.0`.
//! 3. **The sum order.** The total is accumulated in four lanes by flat
//!    cell index, combined as `(l0 + l1) + (l2 + l3)`, plus the `n % 4`
//!    trailing cells summed separately — the reference's `sum_4lane`
//!    order, for every grid width.
//!
//! This holds for every finite lattice coordinate, i.e. any physically
//! representable geometry. (An infinite coordinate needs cell-to-beacon
//! distances beyond ~1e154 m; there the scalar path propagates NaN while
//! the lane lookup clamps.) That is why the fused kernel is the only dense
//! update the simulation runs, with pinned-seed golden traces unchanged,
//! while the scalar path serves only as the test and benchmark oracle.
//!
//! [`PositionGrid::apply_radial_constraint_scalar`]: crate::grid::PositionGrid::apply_radial_constraint_scalar
//! [`DistanceField`]: crate::grid::DistanceField

use cocoa_net::calibration::LaneTable;

/// 2⁵² — the magic bias for branchless f64 → index extraction: for an
/// integer-valued `tf` in `[0, 2⁵²)`, the low mantissa bits of `tf + P52`
/// are exactly `tf`.
const P52: f64 = 4503599627370496.0;

/// A grid row's offsets from a constraint centre: the per-column squared
/// x-offsets, the row's squared y-offset and the profile's inverse step.
#[derive(Debug, Clone, Copy)]
pub struct RowGeometry<'a> {
    /// Squared x-offset of each column's cell centres.
    pub dx2: &'a [f64],
    /// Squared y-offset of the row's cell centres.
    pub dy2: f64,
    /// `1 / step` of the profile's lattice.
    pub inv_step: f64,
}

/// A [`LaneTable`] unpacked for the lookup loops: the power-of-two table
/// length behind `mask` is what lets the optimizer drop per-lane bounds
/// checks.
struct Lookup<'a> {
    val: &'a [f64],
    del: &'a [f64],
    lastf: f64,
    mask: usize,
}

impl<'a> Lookup<'a> {
    fn new(table: &'a LaneTable) -> Self {
        let (val, del) = (table.val(), table.del());
        assert!(val.len().is_power_of_two());
        assert_eq!(val.len(), del.len());
        Lookup {
            val,
            del,
            lastf: table.lastf(),
            mask: val.len() - 1,
        }
    }

    /// `lerp(table, t)` with the float-domain clamp and magic-bias index.
    #[inline(always)]
    fn lerp(&self, t: f64) -> f64 {
        let t = t.min(self.lastf);
        let tf = t.trunc();
        let j = ((tf + P52).to_bits() as usize) & self.mask;
        self.val[j] + self.del[j] * (t - tf)
    }
}

/// The fused update's product over cells whose lattice coordinates are
/// already in a distance field:
/// `out[i] = fl(raw[i] · scale) · lerp(table, t[i])`.
///
/// `raw · scale` is the normalized posterior the previous update left
/// pending. Fully auto-vectorized (gathers, packed multiplies) via the
/// float-domain clamp + magic-bias indexing described in the module docs.
/// Kept out-of-line so the surrounding caller can't break the vectorizable
/// codegen.
///
/// # Panics
///
/// Panics if `raw` or `t` are shorter than `out`.
#[inline(never)]
pub fn product_from_field(out: &mut [f64], raw: &[f64], scale: f64, t: &[f64], table: &LaneTable) {
    let n = out.len();
    let (raw, t) = (&raw[..n], &t[..n]);
    let lookup = Lookup::new(table);
    for ((o, &r), &t) in out.iter_mut().zip(raw).zip(t) {
        *o = (r * scale) * lookup.lerp(t);
    }
}

/// [`product_from_field`] for one grid row whose distance-field row is
/// not built yet: computes each cell's lattice coordinate
/// `t[i] = √(dx2[i] + dy2) · inv_step` — the scalar reference's
/// expression, operand for operand — stores it into `t` for the
/// broadcast's other receivers, and uses it at once. In one loop the
/// packed `sqrt` overlaps the gathers.
///
/// # Panics
///
/// Panics if `t`, `raw` or `row.dx2` are shorter than `out`.
#[inline(never)]
pub fn product_building_field(
    out: &mut [f64],
    t: &mut [f64],
    raw: &[f64],
    scale: f64,
    row: RowGeometry<'_>,
    table: &LaneTable,
) {
    let n = out.len();
    let (t, raw, dx2) = (&mut t[..n], &raw[..n], &row.dx2[..n]);
    let lookup = Lookup::new(table);
    for (((o, t), &r), &d) in out.iter_mut().zip(t).zip(raw).zip(dx2) {
        *t = (d + row.dy2).sqrt() * row.inv_step;
        *o = (r * scale) * lookup.lerp(*t);
    }
}

/// The reference sum order: four accumulators by flat index, combined as
/// `(l0 + l1) + (l2 + l3)`, plus the `n % 4` trailing values. The scalar
/// oracle sums its product with it; [`LaneSum`] reproduces it block by
/// block.
pub(crate) fn sum_4lane(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = xs.chunks_exact(4);
    let rem = chunks.remainder();
    for c in chunks {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rem.iter().sum::<f64>()
}

/// The running total of a product written segment by segment, in the
/// bit-identity contract's order: four lanes by flat index, then the
/// `n % 4` trailing cells.
///
/// After each segment, [`advance`](Self::advance) folds every complete
/// group of four written so far, while it is still in cache; segments need
/// not be multiples of four (a grid row of any width works).
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSum {
    acc: [f64; 4],
    /// Cells folded so far; always a multiple of 4.
    folded: usize,
}

impl LaneSum {
    /// Folds `product[folded..written]`, rounded down to whole groups of
    /// four, into the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `written` exceeds `product.len()`.
    pub fn advance(&mut self, product: &[f64], written: usize) {
        let end = written - written % 4;
        let mut acc = self.acc;
        for c in product[self.folded..end].chunks_exact(4) {
            acc = [acc[0] + c[0], acc[1] + c[1], acc[2] + c[2], acc[3] + c[3]];
        }
        self.acc = acc;
        self.folded = end;
    }

    /// The total of the fully written `product`.
    pub fn finish(mut self, product: &[f64]) -> f64 {
        self.advance(product, product.len());
        let acc = self.acc;
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + product[self.folded..].iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar linear interpolation into a [`LaneTable`] at the pre-scaled
    /// lattice coordinate `t = d / step` — the reference expression the lane
    /// kernel reproduces. Clamping is an index `min`; the zero sentinel
    /// delta makes clamped lookups return the final sample exactly.
    fn lerp_table(table: &LaneTable, t: f64) -> f64 {
        let val = table.val();
        let del = table.del();
        let i = (t as usize).min(table.last_index());
        val[i] + del[i] * (t - i as f64)
    }

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
    fn fused_update_matches_scalar_expression_bitwise() {
        let values: Vec<f64> = (0..64).map(|k| (-(k as f64) * 0.11).exp() + 1e-6).collect();
        let table = LaneTable::from_values(&values);
        let inv_step = 1.0 / 0.35;
        let scale = 1.0 / 3.7;
        // Segments of 1–4 cells: groups of four straddle segment ends, and
        // odd totals leave `n % 4` trailing cells.
        for n in [13, 14, 15, 16] {
            let raw: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 7.0)).collect();
            let dx2: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7 - 9.0).powi(2)).collect();
            let dy2 = 12.25;
            let expected: Vec<f64> = (0..n)
                .map(|i| (raw[i] * scale) * lerp_table(&table, (dx2[i] + dy2).sqrt() * inv_step))
                .collect();
            for seg in 1..=4 {
                // Build the field while multiplying, then reuse it.
                let mut t = vec![0.0; n];
                let mut built = vec![0.0; n];
                let mut reused = vec![0.0; n];
                let (mut sum_built, mut sum_reused) = (LaneSum::default(), LaneSum::default());
                let mut start = 0;
                while start < n {
                    let s = start..(start + seg).min(n);
                    let row = RowGeometry {
                        dx2: &dx2[s.clone()],
                        dy2,
                        inv_step,
                    };
                    product_building_field(
                        &mut built[s.clone()],
                        &mut t[s.clone()],
                        &raw[s.clone()],
                        scale,
                        row,
                        &table,
                    );
                    sum_built.advance(&built, s.end);
                    start = s.end;
                }
                for s in (0..n).step_by(seg) {
                    let s = s..(s + seg).min(n);
                    product_from_field(
                        &mut reused[s.clone()],
                        &raw[s.clone()],
                        scale,
                        &t[s.clone()],
                        &table,
                    );
                    sum_reused.advance(&reused, s.end);
                }
                for i in 0..n {
                    assert_eq!(built[i].to_bits(), expected[i].to_bits(), "n {n}, cell {i}");
                    assert_eq!(
                        reused[i].to_bits(),
                        expected[i].to_bits(),
                        "n {n}, cell {i}"
                    );
                }
                let total = sum_4lane(&expected).to_bits();
                assert_eq!(
                    sum_built.finish(&built).to_bits(),
                    total,
                    "n {n}, seg {seg}"
                );
                assert_eq!(
                    sum_reused.finish(&reused).to_bits(),
                    total,
                    "n {n}, seg {seg}"
                );
            }
        }
    }

    #[test]
    fn fused_update_clamps_like_scalar_reference() {
        // Distances far past the lattice end: both the clamped lane lookup
        // and the index-min scalar reference must return the final sample.
        let values: Vec<f64> = (0..7).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let table = LaneTable::from_values(&values);
        let n = 9;
        let raw = vec![0.125; n];
        let dx2: Vec<f64> = (0..n).map(|i| (1e3 + i as f64).powi(2)).collect();
        let mut t = vec![0.0; n];
        let mut out = vec![0.0; n];
        let row = RowGeometry {
            dx2: &dx2,
            dy2: 0.0,
            inv_step: 1.0,
        };
        product_building_field(&mut out, &mut t, &raw, 1.0, row, &table);
        for (i, &o) in out.iter().enumerate() {
            let expected = 0.125 * values[values.len() - 1];
            assert_eq!(o.to_bits(), expected.to_bits(), "cell {i}");
        }
    }
}
