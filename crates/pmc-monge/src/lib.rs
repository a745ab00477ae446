//! Minimum search in (partial) Monge matrices (§4.1.2–4.1.3).
//!
//! The 2-respecting cut matrices are implicit — entries are cut queries
//! — so every algorithm here takes an entry oracle `f(i, j) -> u64` and
//! touches as few entries as the structure allows:
//!
//! * [`smawk_row_minima`]: the classic SMAWK algorithm, `O(rows+cols)`
//!   entry evaluations for totally monotone (submodular-Monge) matrices.
//!   This is the deterministic substitute for Raman–Vishkin's randomized
//!   `O(ℓ)` Monge minimum ([RV94]; see DESIGN.md).
//! * [`dc_row_minima`]: divide-and-conquer row minima,
//!   `O((rows+cols) log rows)` evaluations, [AKPS90]-style. No solver
//!   path runs it; it is the independent oracle SMAWK is tested
//!   against.
//! * [`monge_minimum`]: global minimum of a full Monge matrix.
//! * [`triangle_minimum`]: minimum over `{(i, j) : i < j}` of a partial
//!   Monge matrix (single-path case, §4.1.2): recursive block
//!   decomposition into full Monge rectangles, `O(ℓ log ℓ)` evaluations.
//!
//! Orientation: the algorithms require *submodular* Monge
//! (`M[i][j] + M[i+1][j+1] <= M[i][j+1] + M[i+1][j]`, leftmost row
//! minima non-decreasing). For supermodular (inverse-Monge) inputs pass
//! [`Orient::Supermodular`]; columns are traversed reversed, which flips
//! the orientation. Checkers ([`is_submodular`], [`orientation_of`])
//! support the property tests in `pmc-mincut` that pin down the
//! orientation of every cut-matrix configuration.

use pmc_parallel::meter::{CostKind, Meter};

/// Monge orientation of an implicit matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orient {
    /// `M[i][j] + M[i+1][j+1] <= M[i][j+1] + M[i+1][j]`.
    Submodular,
    /// `M[i][j] + M[i+1][j+1] >= M[i][j+1] + M[i+1][j]`.
    Supermodular,
}

/// A located matrix entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    pub row: usize,
    pub col: usize,
    pub value: u64,
}

impl Located {
    pub fn min(self, other: Located) -> Located {
        if self.value <= other.value {
            self
        } else {
            other
        }
    }
    pub const MAX: Located = Located { row: usize::MAX, col: usize::MAX, value: u64::MAX };
}

/// SMAWK row minima: for each row the *leftmost* minimum column.
///
/// Requires the matrix to be totally monotone for minima (implied by
/// submodular Monge). `O(rows + cols)` entry evaluations.
/// # Example
///
/// ```
/// use pmc_monge::smawk_row_minima;
/// use pmc_parallel::Meter;
///
/// // M[i][j] = (x_i - y_j)^2 over sorted coordinates is submodular Monge.
/// let xs = [1i64, 4, 9];
/// let ys = [2i64, 3, 8, 10];
/// let minima = smawk_row_minima(3, 4, |i, j| ((xs[i] - ys[j]).pow(2)) as u64, &Meter::disabled());
/// assert_eq!(minima[0].col, 0); // 1 is closest to 2
/// assert_eq!(minima[2].col, 2); // 9 is closest to 8
/// ```
pub fn smawk_row_minima<F>(rows: usize, cols: usize, f: F, meter: &Meter) -> Vec<Located>
where
    F: Fn(usize, usize) -> u64,
{
    let row_idx: Vec<usize> = (0..rows).collect();
    let col_idx: Vec<usize> = (0..cols).collect();
    let mut out = vec![Located::MAX; rows];
    if rows == 0 || cols == 0 {
        return out;
    }
    // Memoize distinct entries: the recursion re-touches boundary
    // columns (a level's reduce re-compares entries its parent's
    // interpolate already paid for), and in the solver every entry is a
    // full cut query — dedup is a real saving, and the meter charges
    // *oracle* evaluations, i.e. distinct entries.
    let memo = std::cell::RefCell::new(std::collections::HashMap::<(u32, u32), u64>::new());
    let eval = |i: usize, j: usize| {
        if let Some(&v) = memo.borrow().get(&(i as u32, j as u32)) {
            return v;
        }
        meter.bump(CostKind::MongeEntry);
        let v = f(i, j);
        memo.borrow_mut().insert((i as u32, j as u32), v);
        v
    };
    smawk_rec(&row_idx, &col_idx, &eval, &mut out);
    out
}

fn smawk_rec<F>(rows: &[usize], cols: &[usize], f: &F, out: &mut [Located])
where
    F: Fn(usize, usize) -> u64,
{
    if rows.is_empty() {
        return;
    }
    if rows.len() <= 2 {
        // One or two rows: scan the last row for its leftmost minimum
        // (|cols| evaluations), then by total monotonicity the first
        // row's minimum sits at or left of that argmin — the exact
        // entry set divide-and-conquer touches, so tiny blocks cost the
        // two engines the same.
        let r = rows[rows.len() - 1];
        let mut best = Located::MAX;
        for &c in cols {
            let v = f(r, c);
            if v < best.value {
                best = Located { row: r, col: c, value: v };
            }
        }
        out[r] = best;
        if rows.len() == 2 {
            let r0 = rows[0];
            let mut first = Located::MAX;
            for &c in cols {
                let v = f(r0, c);
                if v < first.value {
                    first = Located { row: r0, col: c, value: v };
                }
                if c == best.col {
                    break;
                }
            }
            out[r0] = first;
        }
        return;
    }
    // REDUCE: prune columns that cannot host any row minimum, keeping
    // at most |rows| survivors. Only worth the comparisons when there
    // are more columns than rows — with |cols| <= |rows| the stack
    // cannot prune below the existing bound and every comparison is
    // overhead (this is what keeps the square-matrix constant below
    // divide-and-conquer's `log r` factor). Each stack entry caches the
    // value of its column at "its" row (`f(rows[h], stack[h])` for
    // height `h`), computed lazily on first use as the left comparison
    // operand, so a column that survives several comparisons as
    // top-of-stack is evaluated there once instead of once per
    // comparison.
    let reduced: Vec<usize>;
    let cols: &[usize] = if cols.len() > rows.len() {
        let mut stack: Vec<(usize, Option<u64>)> = Vec::with_capacity(rows.len());
        for &c in cols {
            loop {
                let h = stack.len();
                if h == 0 {
                    stack.push((c, None));
                    break;
                }
                let r = rows[h - 1];
                let top_val = match stack[h - 1].1 {
                    Some(v) => v,
                    None => {
                        let v = f(r, stack[h - 1].0);
                        stack[h - 1].1 = Some(v);
                        v
                    }
                };
                // The candidate's value must be recomputed per height:
                // the comparison row changes as the stack pops.
                if top_val > f(r, c) {
                    stack.pop();
                } else if h < rows.len() {
                    stack.push((c, None));
                    break;
                } else {
                    break;
                }
            }
        }
        reduced = stack.into_iter().map(|(c, _)| c).collect();
        &reduced
    } else {
        cols
    };
    // Recurse on odd-indexed rows.
    let odd: Vec<usize> = rows.iter().copied().skip(1).step_by(2).collect();
    smawk_rec(&odd, cols, f, out);
    // INTERPOLATE even-indexed rows between their neighbours' argmins.
    let mut cpos = 0usize;
    for (k, &r) in rows.iter().enumerate().step_by(2) {
        let upper_col = if k + 1 < rows.len() {
            out[rows[k + 1]].col
        } else {
            // INVARIANT: smawk_rec is never entered with empty `cols`
            // (the public entry returns early on `cols == 0`).
            *cols.last().expect("non-empty column set")
        };
        let mut best = Located::MAX;
        let mut j = cpos;
        while j < cols.len() {
            let c = cols[j];
            let v = f(r, c);
            if v < best.value {
                best = Located { row: r, col: c, value: v };
            }
            if c == upper_col {
                break;
            }
            j += 1;
        }
        cpos = j.min(cols.len() - 1);
        out[r] = best;
    }
}

/// Divide-and-conquer row minima (leftmost). Requires total
/// monotonicity; `O((rows+cols) log rows)` evaluations, recursion halves
/// run via `rayon::join`.
pub fn dc_row_minima<F>(rows: usize, cols: usize, f: F, meter: &Meter) -> Vec<Located>
where
    F: Fn(usize, usize) -> u64 + Sync,
{
    let mut out = vec![Located::MAX; rows];
    if rows == 0 || cols == 0 {
        return out;
    }
    let eval = |i: usize, j: usize| {
        meter.bump(CostKind::MongeEntry);
        f(i, j)
    };
    dc_rec_slice(0, rows, 0, cols, &eval, &mut out, 0);
    out
}

/// Recursive worker: solve rows `[rlo, rhi)` against columns
/// `[clo, chi)`, writing into `out[r - offset]`. The middle row's
/// leftmost argmin splits the column range for the parallel halves.
fn dc_rec_slice<F>(
    rlo: usize,
    rhi: usize,
    clo: usize,
    chi: usize,
    f: &F,
    out: &mut [Located],
    offset: usize,
) where
    F: Fn(usize, usize) -> u64 + Sync,
{
    if rlo >= rhi {
        return;
    }
    let mid = (rlo + rhi) / 2;
    let mut best = Located::MAX;
    for j in clo..chi {
        let v = f(mid, j);
        if v < best.value {
            best = Located { row: mid, col: j, value: v };
        }
    }
    out[mid - offset] = best;
    let (left, right) = out.split_at_mut(mid - offset);
    // INVARIANT: `mid < rhi <= offset + out.len()`, so the right half
    // holds at least the `mid` slot itself.
    let (_, right) = right.split_first_mut().expect("right half contains the mid row");
    let bcol = best.col;
    rayon::join(
        || dc_rec_slice(rlo, mid, clo, bcol + 1, f, left, offset),
        || dc_rec_slice(mid + 1, rhi, bcol, chi, f, right, mid + 1),
    );
}

/// Global minimum of a full Monge matrix with the given orientation.
///
/// `O(rows + cols)` evaluations via SMAWK.
pub fn monge_minimum<F>(
    rows: usize,
    cols: usize,
    orient: Orient,
    f: F,
    meter: &Meter,
) -> Option<Located>
where
    F: Fn(usize, usize) -> u64,
{
    if rows == 0 || cols == 0 {
        return None;
    }
    let minima = match orient {
        Orient::Submodular => smawk_row_minima(rows, cols, &f, meter),
        Orient::Supermodular => {
            // Reverse columns: supermodular becomes submodular.
            let mut m = smawk_row_minima(rows, cols, |i, j| f(i, cols - 1 - j), meter);
            for loc in &mut m {
                if loc.col != usize::MAX {
                    loc.col = cols - 1 - loc.col;
                }
            }
            m
        }
    };
    minima.into_iter().reduce(Located::min)
}

/// Minimum over the strict upper triangle `{(i, j) : i < j}` of a
/// `k x k` partial Monge matrix (Monge off the diagonal, the paper's
/// single-path matrix). Recursive block decomposition: the off-diagonal
/// rectangle `rows [lo,mid) x cols [mid,hi)` is full Monge and is solved
/// by SMAWK; the two triangles recurse in parallel. `O(k log k)`
/// evaluations, `O(log^2 k)`-style span.
pub fn triangle_minimum<F>(k: usize, orient: Orient, f: F, meter: &Meter) -> Option<Located>
where
    F: Fn(usize, usize) -> u64 + Sync,
{
    if k < 2 {
        return None;
    }
    triangle_rec(0, k, orient, &f, meter)
}

fn triangle_rec<F>(
    lo: usize,
    hi: usize,
    orient: Orient,
    f: &F,
    meter: &Meter,
) -> Option<Located>
where
    F: Fn(usize, usize) -> u64 + Sync,
{
    let len = hi - lo;
    if len < 2 {
        return None;
    }
    if len == 2 {
        meter.bump(CostKind::MongeEntry);
        return Some(Located { row: lo, col: lo + 1, value: f(lo, lo + 1) });
    }
    let mid = (lo + hi) / 2;
    let (block, halves) = rayon::join(
        || {
            monge_minimum(mid - lo, hi - mid, orient, |i, j| f(lo + i, mid + j), meter)
                .map(|l| Located { row: lo + l.row, col: mid + l.col, value: l.value })
        },
        || {
            let (a, b) = rayon::join(
                || triangle_rec(lo, mid, orient, f, meter),
                || triangle_rec(mid, hi, orient, f, meter),
            );
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        },
    );
    match (block, halves) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Exhaustive `O(rows * cols)` minimum — the oracle for tests and the
/// "no structure exploited" ablation baseline.
pub fn brute_minimum<F>(rows: usize, cols: usize, f: F, meter: &Meter) -> Option<Located>
where
    F: Fn(usize, usize) -> u64,
{
    let mut best: Option<Located> = None;
    for i in 0..rows {
        for j in 0..cols {
            meter.bump(CostKind::MongeEntry);
            let v = f(i, j);
            if best.is_none_or(|b| v < b.value) {
                best = Some(Located { row: i, col: j, value: v });
            }
        }
    }
    best
}

/// Exhaustive strict-upper-triangle minimum.
pub fn brute_triangle_minimum<F>(k: usize, f: F, meter: &Meter) -> Option<Located>
where
    F: Fn(usize, usize) -> u64,
{
    let mut best: Option<Located> = None;
    for i in 0..k {
        for j in i + 1..k {
            meter.bump(CostKind::MongeEntry);
            let v = f(i, j);
            if best.is_none_or(|b| v < b.value) {
                best = Some(Located { row: i, col: j, value: v });
            }
        }
    }
    best
}

/// Does the matrix satisfy the submodular Monge inequality everywhere?
pub fn is_submodular<F>(rows: usize, cols: usize, f: F) -> bool
where
    F: Fn(usize, usize) -> u64,
{
    for i in 0..rows.saturating_sub(1) {
        for j in 0..cols.saturating_sub(1) {
            // Use i128 to avoid overflow on u64 sums.
            let a = f(i, j) as i128 + f(i + 1, j + 1) as i128;
            let b = f(i, j + 1) as i128 + f(i + 1, j) as i128;
            if a > b {
                return false;
            }
        }
    }
    true
}

/// Does the matrix satisfy the supermodular (inverse Monge) inequality?
pub fn is_supermodular<F>(rows: usize, cols: usize, f: F) -> bool
where
    F: Fn(usize, usize) -> u64,
{
    for i in 0..rows.saturating_sub(1) {
        for j in 0..cols.saturating_sub(1) {
            let a = f(i, j) as i128 + f(i + 1, j + 1) as i128;
            let b = f(i, j + 1) as i128 + f(i + 1, j) as i128;
            if a < b {
                return false;
            }
        }
    }
    true
}

/// Classify a matrix, if it has a consistent orientation.
pub fn orientation_of<F>(rows: usize, cols: usize, f: F) -> Option<Orient>
where
    F: Fn(usize, usize) -> u64 + Copy,
{
    match (is_submodular(rows, cols, f), is_supermodular(rows, cols, f)) {
        (true, _) => Some(Orient::Submodular),
        (_, true) => Some(Orient::Supermodular),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random submodular Monge matrix: squared distances between two
    /// sorted coordinate sets (classic construction).
    fn random_monge(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
        let mut xs: Vec<i64> = (0..rows).map(|_| rng.random_range(0..1000)).collect();
        let mut ys: Vec<i64> = (0..cols).map(|_| rng.random_range(0..1000)).collect();
        xs.sort_unstable();
        ys.sort_unstable();
        (0..rows)
            .map(|i| (0..cols).map(|j| ((xs[i] - ys[j]) * (xs[i] - ys[j])) as u64).collect())
            .collect()
    }

    #[test]
    fn generator_is_submodular() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let m = random_monge(8, 11, &mut rng);
            assert!(is_submodular(8, 11, |i, j| m[i][j]));
        }
    }

    #[test]
    fn smawk_matches_brute_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        for (r, c) in [(1, 1), (1, 7), (7, 1), (5, 5), (13, 29), (31, 8), (64, 64)] {
            let m = random_monge(r, c, &mut rng);
            let got = smawk_row_minima(r, c, |i, j| m[i][j], &Meter::disabled());
            for i in 0..r {
                let brute: u64 = (0..c).map(|j| m[i][j]).min().expect("c >= 1 columns");
                assert_eq!(got[i].value, brute, "({r},{c}) row {i}");
                // Leftmost argmin.
                let leftmost = (0..c).find(|&j| m[i][j] == brute).expect("minimum exists");
                assert_eq!(got[i].col, leftmost, "({r},{c}) row {i} leftmost");
            }
        }
    }

    #[test]
    fn smawk_linear_evaluations() {
        let mut rng = StdRng::seed_from_u64(3);
        let (r, c) = (500, 700);
        let m = random_monge(r, c, &mut rng);
        let meter = Meter::enabled();
        let _ = smawk_row_minima(r, c, |i, j| m[i][j], &meter);
        let evals = meter.get(CostKind::MongeEntry);
        // SMAWK is O(r + c) with a small constant.
        assert!(evals <= 8 * (r + c) as u64, "evals {evals} not linear");
    }

    #[test]
    fn dc_matches_smawk() {
        let mut rng = StdRng::seed_from_u64(4);
        for (r, c) in [(2, 3), (9, 9), (17, 40), (40, 17)] {
            let m = random_monge(r, c, &mut rng);
            let a = smawk_row_minima(r, c, |i, j| m[i][j], &Meter::disabled());
            let b = dc_row_minima(r, c, |i, j| m[i][j], &Meter::disabled());
            for i in 0..r {
                assert_eq!(a[i].value, b[i].value, "({r},{c}) row {i}");
                assert_eq!(a[i].col, b[i].col, "({r},{c}) row {i} leftmost argmin");
            }
        }
    }

    #[test]
    fn monge_minimum_both_orientations() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let m = random_monge(12, 9, &mut rng);
            let expect = brute_minimum(12, 9, |i, j| m[i][j], &Meter::disabled())
                .expect("non-empty matrix has a minimum");
            let got =
                monge_minimum(12, 9, Orient::Submodular, |i, j| m[i][j], &Meter::disabled())
                    .expect("non-empty matrix has a minimum");
            assert_eq!(got.value, expect.value);
            // Supermodular variant: reverse columns of m.
            let got2 = monge_minimum(
                12,
                9,
                Orient::Supermodular,
                |i, j| m[i][8 - j],
                &Meter::disabled(),
            )
            .expect("non-empty matrix has a minimum");
            assert_eq!(got2.value, expect.value);
        }
    }

    #[test]
    fn triangle_minimum_matches_brute() {
        let mut rng = StdRng::seed_from_u64(6);
        for k in [2usize, 3, 4, 7, 16, 33, 64] {
            // Build a symmetric-ish partial Monge matrix from a full
            // Monge one (upper triangle inherits Mongeness).
            let m = random_monge(k, k, &mut rng);
            let expect =
                brute_triangle_minimum(k, |i, j| m[i][j], &Meter::disabled())
                    .expect("k >= 2 triangle has a minimum");
            let got =
                triangle_minimum(k, Orient::Submodular, |i, j| m[i][j], &Meter::disabled())
                    .expect("k >= 2 triangle has a minimum");
            assert_eq!(got.value, expect.value, "k={k}");
            assert!(got.row < got.col, "k={k} returned diagonal-or-lower entry");
        }
    }

    #[test]
    fn triangle_evaluation_count_quasilinear() {
        let mut rng = StdRng::seed_from_u64(7);
        let k = 512;
        let m = random_monge(k, k, &mut rng);
        let meter = Meter::enabled();
        let _ = triangle_minimum(k, Orient::Submodular, |i, j| m[i][j], &meter);
        let evals = meter.get(CostKind::MongeEntry);
        let bound = 16 * (k as u64) * (k as f64).log2() as u64;
        assert!(evals <= bound, "evals {evals} > {bound}");
    }

    #[test]
    fn empty_inputs() {
        let m = Meter::disabled();
        assert!(monge_minimum(0, 5, Orient::Submodular, |_, _| 0, &m).is_none());
        assert!(monge_minimum(5, 0, Orient::Submodular, |_, _| 0, &m).is_none());
        assert!(triangle_minimum(0, Orient::Submodular, |_, _| 0, &m).is_none());
        assert!(triangle_minimum(1, Orient::Submodular, |_, _| 0, &m).is_none());
        assert!(smawk_row_minima(0, 0, |_, _| 0, &m).is_empty());
    }

    #[test]
    fn orientation_checkers() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = random_monge(6, 6, &mut rng);
        assert_eq!(orientation_of(6, 6, |i, j| m[i][j]), Some(Orient::Submodular));
        assert_eq!(orientation_of(6, 6, |i, j| m[i][5 - j]), Some(Orient::Supermodular));
        // A random matrix is almost surely neither.
        let r: Vec<Vec<u64>> =
            (0..6).map(|_| (0..6).map(|_| rng.random_range(0..1000)).collect()).collect();
        // (Could be degenerate by chance with tiny probability; seed fixed.)
        assert_eq!(orientation_of(6, 6, |i, j| r[i][j]), None);
    }

    #[test]
    fn constant_matrix_is_both() {
        assert!(is_submodular(4, 4, |_, _| 7));
        assert!(is_supermodular(4, 4, |_, _| 7));
        let got = monge_minimum(4, 4, Orient::Submodular, |_, _| 7, &Meter::disabled())
            .expect("non-empty matrix has a minimum");
        assert_eq!(got.value, 7);
    }
}
