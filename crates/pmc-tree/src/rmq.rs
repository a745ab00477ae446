//! Block-decomposed O(1) range-minimum queries and the Euler-tour LCA
//! built on them.
//!
//! A full sparse table over the tour would cost `O(n log n)` words.
//! Instead the tour is cut into blocks of [`BLOCK`] entries, each
//! position keeps a 64-bit monotone-stack mask that answers in-block
//! queries with one shift and a `trailing_zeros`, and a sparse table is
//! built only over the `n / 64` block minima. Build is `O(n)` work and `O(n)` words;
//! queries are O(1) with the **leftmost** argmin on ties — the same tie
//! rule as SMAWK and `dc_row_minima`, so witnesses stay bit-identical
//! whichever engine answers.
//!
//! The derivation of the mask invariant (why the lowest set bit ≥ `l`
//! of `mask[r]` is the leftmost minimum of `v[l..=r]`) is written out
//! in DESIGN.md §10.

use crate::rooted::RootedTree;
use pmc_parallel::meter::{CostKind, Meter};

/// In-block width: one machine word of mask per position.
pub const BLOCK: usize = 64;

/// O(1) range-minimum structure over a `u32` array in `O(n)` words.
///
/// Ties resolve to the **leftmost** index, both inside blocks (the
/// monotone stack pops only on *strictly* greater values, so earlier
/// equal entries survive and win the `trailing_zeros`) and across
/// blocks (comparisons keep the left candidate on equality).
#[derive(Debug, Clone)]
pub struct BlockRmq {
    values: Vec<u32>,
    /// `masks[i]`: bit `j` set iff in-block position `j <= i % BLOCK`
    /// is on the monotone stack after scanning up to `i` — i.e. `j` is
    /// the leftmost minimum of some suffix window ending at `i`.
    masks: Vec<u64>,
    /// Global index of the leftmost minimum of each block.
    block_argmin: Vec<u32>,
    /// `sparse[k][b]` = global index of the leftmost minimum over
    /// blocks `[b, b + 2^k)`.
    sparse: Vec<Vec<u32>>,
}

impl BlockRmq {
    pub fn new(values: Vec<u32>) -> Self {
        let n = values.len();
        let mut masks = vec![0u64; n];
        let blocks = n.div_ceil(BLOCK);
        let mut block_argmin = Vec::with_capacity(blocks);
        let mut stack: Vec<u32> = Vec::with_capacity(BLOCK);
        for b in 0..blocks {
            let start = b * BLOCK;
            let end = (start + BLOCK).min(n);
            stack.clear();
            let mut mask = 0u64;
            for i in start..end {
                let off = (i - start) as u32;
                while let Some(&top) = stack.last() {
                    if values[start + top as usize] > values[i] {
                        mask &= !(1u64 << top);
                        stack.pop();
                    } else {
                        break;
                    }
                }
                stack.push(off);
                mask |= 1u64 << off;
                masks[i] = mask;
            }
            // Stack bottom is the leftmost block minimum.
            block_argmin.push(start as u32 + masks[end - 1].trailing_zeros());
        }

        // Sparse table over block minima only: O((n/64) log(n/64)) words.
        let levels = if blocks == 0 {
            0
        } else {
            (usize::BITS - blocks.leading_zeros()) as usize
        };
        let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
        if blocks > 0 {
            sparse.push(block_argmin.clone());
            let mut k = 1;
            while (1 << k) <= blocks {
                let half = 1usize << (k - 1);
                let prev = &sparse[k - 1];
                let cur: Vec<u32> = (0..blocks - (1 << k) + 1)
                    .map(|b| {
                        let a = prev[b];
                        let c = prev[b + half];
                        if values[a as usize] <= values[c as usize] {
                            a
                        } else {
                            c
                        }
                    })
                    .collect();
                sparse.push(cur);
                k += 1;
            }
        }
        BlockRmq { values, masks, block_argmin, sparse }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Leftmost minimum inside one block over global indices `[l, r]`.
    #[inline]
    fn in_block(&self, l: usize, r: usize) -> usize {
        let base = r - (r % BLOCK);
        let window = self.masks[r] >> (l - base);
        debug_assert!(window != 0, "position r is always on its own stack");
        l + window.trailing_zeros() as usize
    }

    /// Leftmost minimum over whole blocks `[lb, rb]` via the sparse
    /// table.
    #[inline]
    fn over_blocks(&self, lb: usize, rb: usize) -> usize {
        let span = rb - lb + 1;
        if span == 1 {
            return self.block_argmin[lb] as usize;
        }
        let k = (usize::BITS - span.leading_zeros() - 1) as usize;
        let a = self.sparse[k][lb] as usize;
        let b = self.sparse[k][rb + 1 - (1 << k)] as usize;
        if self.values[a] <= self.values[b] {
            a
        } else {
            b
        }
    }

    /// Index of the **leftmost** minimum of `values[l..=r]`. O(1).
    pub fn argmin(&self, l: usize, r: usize) -> usize {
        debug_assert!(l <= r && r < self.values.len(), "argmin range out of bounds");
        let (lb, rb) = (l / BLOCK, r / BLOCK);
        if lb == rb {
            return self.in_block(l, r);
        }
        // Suffix of l's block, interior whole blocks, prefix of r's
        // block — replace only on *strictly* smaller values so the
        // leftmost candidate survives ties.
        let mut best = self.in_block(l, (lb + 1) * BLOCK - 1);
        if lb < rb - 1 {
            let mid = self.over_blocks(lb + 1, rb - 1);
            if self.values[mid] < self.values[best] {
                best = mid;
            }
        }
        let pre = self.in_block(rb * BLOCK, r);
        if self.values[pre] < self.values[best] {
            best = pre;
        }
        best
    }
}

/// Euler-tour + [`BlockRmq`] LCA: `O(n)` build work, `O(n)` words,
/// O(1) per query.
///
/// This is the [`crate::lca::LcaStrategy::SparseTable`] engine. It
/// answers *only* `lca`/`depth`/`distance`; level-ancestor queries
/// (`kth_ancestor`, `ancestor_at_depth`) stay with the binary-lifting
/// [`crate::lca::LcaTable`], which [`crate::lca::LcaEngine`] keeps
/// alongside this structure.
#[derive(Debug, Clone)]
pub struct SparseLca {
    /// Vertex at each tour position (`2n - 1` entries).
    tour: Vec<u32>,
    /// First tour position of each vertex.
    first: Vec<u32>,
    /// Vertex depths, indexed by vertex (for `depth`/`distance`).
    depth: Vec<u32>,
    /// RMQ over per-position tour depths.
    rmq: BlockRmq,
}

impl SparseLca {
    pub fn build(tree: &RootedTree, meter: &Meter) -> Self {
        let n = tree.n();
        meter.add(CostKind::TreeOp, (2 * n) as u64);
        let mut tour = Vec::with_capacity(2 * n);
        let mut tour_depth = Vec::with_capacity(2 * n);
        let mut first = vec![u32::MAX; n];
        let mut stack: Vec<(u32, usize)> = vec![(tree.root(), 0)];
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if *cursor == 0 {
                first[v as usize] = tour.len() as u32;
                tour.push(v);
                tour_depth.push(tree.depth(v));
            }
            let kids = tree.children(v);
            if *cursor < kids.len() {
                let c = kids[*cursor];
                *cursor += 1;
                stack.push((c, 0));
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    tour.push(p);
                    tour_depth.push(tree.depth(p));
                }
            }
        }
        debug_assert_eq!(tour.len(), 2 * n - 1);
        let depth = (0..n as u32).map(|v| tree.depth(v)).collect();
        SparseLca { tour, first, depth, rmq: BlockRmq::new(tour_depth) }
    }

    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    /// Lowest common ancestor in O(1): depth RMQ between first visits.
    pub fn lca(&self, a: u32, b: u32) -> u32 {
        let (mut i, mut j) = (self.first[a as usize] as usize, self.first[b as usize] as usize);
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        self.tour[self.rmq.argmin(i, j)]
    }

    /// Tree distance via the O(1) LCA.
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        let l = self.lca(a, b);
        self.depth[a as usize] + self.depth[b as usize] - 2 * self.depth[l as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lca::LcaTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_argmin(v: &[u32], l: usize, r: usize) -> usize {
        let mut best = l;
        for i in l + 1..=r {
            if v[i] < v[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn rmq_matches_brute_with_leftmost_ties() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 500, 1000] {
            // Small value range forces many ties.
            let v: Vec<u32> = (0..n).map(|_| rng.random_range(0..6)).collect();
            let rmq = BlockRmq::new(v.clone());
            for _ in 0..400 {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                let (l, r) = (a.min(b), a.max(b));
                assert_eq!(rmq.argmin(l, r), brute_argmin(&v, l, r), "n={n} [{l},{r}]");
            }
        }
    }

    #[test]
    fn rmq_exhaustive_small() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [1usize, 5, 64, 65, 130] {
            let v: Vec<u32> = (0..n).map(|_| rng.random_range(0..4)).collect();
            let rmq = BlockRmq::new(v.clone());
            for l in 0..n {
                for r in l..n {
                    assert_eq!(rmq.argmin(l, r), brute_argmin(&v, l, r), "n={n} [{l},{r}]");
                }
            }
        }
    }

    #[test]
    fn rmq_block_boundaries() {
        // Strictly decreasing then constant: minima pin to boundaries.
        let mut v = vec![0u32; 200];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (200 - i) as u32;
        }
        let rmq = BlockRmq::new(v.clone());
        assert_eq!(rmq.argmin(0, 199), 199);
        assert_eq!(rmq.argmin(63, 64), 64);
        assert_eq!(rmq.argmin(0, 63), 63);
        assert_eq!(rmq.argmin(64, 127), 127);
        let flat = BlockRmq::new(vec![7u32; 300]);
        // All equal: leftmost everywhere, including across blocks.
        assert_eq!(flat.argmin(0, 299), 0);
        assert_eq!(flat.argmin(63, 200), 63);
        assert_eq!(flat.argmin(64, 128), 64);
    }

    fn random_tree(n: u32, rng: &mut StdRng) -> RootedTree {
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        RootedTree::from_parents(0, &parent)
    }

    #[test]
    fn sparse_lca_matches_lifting() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1u32, 2, 3, 17, 64, 65, 300, 2000] {
            let t = random_tree(n, &mut rng);
            let sparse = SparseLca::build(&t, &Meter::disabled());
            let lifting = LcaTable::build(&t);
            for _ in 0..500 {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                assert_eq!(sparse.lca(a, b), lifting.lca(a, b), "n={n} ({a},{b})");
                assert_eq!(sparse.distance(a, b), lifting.distance(a, b));
            }
        }
    }

    #[test]
    fn sparse_lca_deep_path() {
        let n = 100_000u32;
        let parent: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
        let t = RootedTree::from_parents(0, &parent);
        let s = SparseLca::build(&t, &Meter::disabled());
        assert_eq!(s.lca(100, 99_999), 100);
        assert_eq!(s.lca(0, n - 1), 0);
        assert_eq!(s.distance(10, 30), 20);
    }

    #[test]
    fn sparse_lca_single_vertex() {
        let t = RootedTree::from_parents(0, &[0]);
        let s = SparseLca::build(&t, &Meter::disabled());
        assert_eq!(s.lca(0, 0), 0);
        assert_eq!(s.distance(0, 0), 0);
    }
}
