//! Disjoint-set structures.
//!
//! [`UnionFind`] is the classic sequential structure with union by rank
//! and path halving. [`ConcurrentUnionFind`] is a lock-free variant in
//! the style of Jayanti–Tarjan: parents live in `AtomicU32`, `find`
//! performs CAS path halving, and `union` links the smaller root under
//! the larger by CAS-retry. The concurrent variant powers the parallel
//! spanning forests of Theorem 2.6's certificate construction.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union-find with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), rank: vec![0; n], components: n }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`; returns `true` when they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    pub fn num_components(&self) -> usize {
        self.components
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Reset to `n` singleton sets, reusing the allocation when possible.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = n;
    }
}

/// Lock-free concurrent union-find.
///
/// `find` is wait-free up to CAS contention; `union` retries until the
/// roots are linked or discovered equal. Linking uses the root *index*
/// as the tie-breaking priority (larger index wins), which preserves the
/// acyclicity invariant without per-node rank words.
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind { parent: (0..n as u32).map(AtomicU32::new).collect() }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with CAS path halving).
    // Relaxed throughout `find`: parent pointers only move towards
    // roots, any stale read is re-resolved on the next loop iteration,
    // and cross-thread agreement is carried by `union`'s AcqRel CAS.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            // (Relaxed: see the note above `find`.)
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp != p {
                // Path halving; failure is benign. (Relaxed: see above.)
                let _ = self.parent[x as usize].compare_exchange_weak(
                    p,
                    gp,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`; returns `true` iff this call
    /// performed the link (exactly one concurrent caller wins per merge).
    pub fn union(&self, a: u32, b: u32) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            // Deterministic priority: link smaller root under larger.
            // (Relaxed on failure: the retry re-reads fresh roots.)
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            if self.parent[lo as usize]
                .compare_exchange(lo, hi, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
            // Someone moved `lo`; retry from fresh roots.
        }
    }

    pub fn same(&self, a: u32, b: u32) -> bool {
        // Standard double-check loop: roots must be stable to conclude.
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            if self.parent[ra as usize].load(Ordering::Acquire) == ra {
                return false;
            }
        }
    }

    /// Number of components (linear scan; call after the parallel phase).
    pub fn num_components(&self) -> usize {
        (0..self.parent.len() as u32).filter(|&v| self.find(v) == v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn sequential_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        assert_eq!(uf.num_components(), 3);
        uf.reset(2);
        assert_eq!(uf.num_components(), 2);
        assert!(!uf.same(0, 1));
    }

    #[test]
    fn concurrent_matches_sequential() {
        let n = 2000;
        let edges: Vec<(u32, u32)> =
            (0..n as u32 - 1).map(|i| (i, i + 1)).chain((0..500).map(|i| (i, i * 3 % n as u32))).collect();
        let cuf = ConcurrentUnionFind::new(n);
        edges.par_iter().for_each(|&(a, b)| {
            cuf.union(a, b);
        });
        assert_eq!(cuf.num_components(), 1);
    }

    #[test]
    fn concurrent_union_returns_true_once_per_merge() {
        // Hammer the same pair from many threads; exactly one wins.
        let cuf = ConcurrentUnionFind::new(2);
        let wins: usize = (0..64u32)
            .into_par_iter()
            .map(|_| usize::from(cuf.union(0, 1)))
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(wins, 1);
    }

    #[test]
    fn concurrent_components_count() {
        let cuf = ConcurrentUnionFind::new(10);
        // Two chains: 0-4, 5-9.
        (0..9u32).into_par_iter().filter(|&i| i != 4).for_each(|i| {
            cuf.union(i, i + 1);
        });
        assert_eq!(cuf.num_components(), 2);
        assert!(cuf.same(0, 4));
        assert!(!cuf.same(4, 5));
    }

    #[test]
    fn concurrent_spanning_tree_edge_count() {
        // The number of winning unions over a connected graph is n-1:
        // a spanning tree, no matter the interleaving.
        let n = 512u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in [i.wrapping_mul(7) % n, i.wrapping_mul(13) % n, (i + 1) % n] {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let cuf = ConcurrentUnionFind::new(n as usize);
        let tree_edges = edges
            .par_iter()
            .map(|&(a, b)| usize::from(cuf.union(a, b)))
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(tree_edges, n as usize - 1);
    }
}
