//! Parallel orthogonal range sums (§4.3 and Appendix A).
//!
//! The cut-query structure of Lemma A.1 reduces `cut(e, f)` to at most
//! two rectangle-sum queries over `m` weighted points in the
//! `[n] x [n]` grid. [`RangeTree2D`] answers them with Lemma 4.25's
//! two-level construction: a complete x-tree of degree `n^ε` whose
//! nodes carry y-sorted auxiliary arrays. The lemma builds each
//! auxiliary structure from Lemma 4.24's 1-D tree; here they are
//! prefix arrays + binary search, which never exceed the lemma's
//! `O(n^ε/ε)` aux-query bound for `ε ≥ 1/log n` (DESIGN.md §5).
//!
//! The `ε` parameter trades query fan-out against tree height exactly as
//! in Theorem 4.26; [`degree_for_eps`] maps `ε` to the branching factor.

pub mod tree2d;

pub use tree2d::RangeTree2D;

/// A weighted point in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Point2 {
    pub x: u32,
    pub y: u32,
    pub w: u64,
}

/// Branching factor `max(2, ceil(universe^eps))` for a given `ε`, the
/// paper's `n^ε` degree (footnote 9: `ε > 1/log n` so the degree is at
/// least 2).
pub fn degree_for_eps(universe: usize, eps: f64) -> usize {
    if universe <= 2 {
        return 2;
    }
    let d = (universe as f64).powf(eps).ceil() as usize;
    d.clamp(2, universe.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_bounds() {
        assert_eq!(degree_for_eps(0, 0.5), 2);
        assert_eq!(degree_for_eps(1024, 0.0), 2);
        assert_eq!(degree_for_eps(1024, 1.0), 1024);
        // eps = 0.5 on 1024 -> 32
        assert_eq!(degree_for_eps(1024, 0.5), 32);
        // eps = 1/log2(n) -> degree 2
        let eps = 1.0 / (1024f64).log2();
        assert_eq!(degree_for_eps(1024, eps), 2);
    }
}
