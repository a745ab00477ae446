//! Work-span accounting.
//!
//! A [`Meter`] is a bundle of relaxed atomic counters, one per
//! [`CostKind`], plus per-phase depth gauges. Algorithms thread a
//! `&Meter` through their hot paths and bump the counter that matches
//! the unit of work the paper counts (cut queries, range-tree node
//! visits, spanning-forest edge touches, ...). A disabled meter
//! compiles to a branch on a bool and is safe to pass everywhere.
//!
//! Depth is recorded per phase as the *maximum over parallel branches* —
//! algorithms know their own composition structure, so they report each
//! branch's critical-path length via [`Meter::record_depth`] (take-max),
//! and [`CostReport::total_depth`] sums the phases, which run back to
//! back. The result is an empirical proxy for PRAM depth that scales the
//! way the theorems predict, which is what the depth experiments check.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Categories of unit work, mirroring the quantities the paper's
/// analysis counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostKind {
    /// One `cut(e, f)` / `cov(e, f)` evaluation (Lemma A.2).
    CutQuery,
    /// One node visit inside the 2-D range tree (Lemma 4.25).
    RangeNode,
    /// One matrix entry inspected by a Monge minimum search (§4.1.2/4.1.3).
    MongeEntry,
    /// One edge touched by a spanning-forest computation (Thm 2.6).
    ForestEdge,
    /// One entry of the packing's maintained MST order touched (§4.2
    /// packing): read by a Kruskal scan, stale entries included, or by a
    /// merge into the side buffer or back into the main order.
    MstEdge,
    /// One random sample drawn (binomial/skeleton sampling, §2.4.1).
    Sample,
    /// One tree-structure operation (Euler tour, LCA, decomposition).
    TreeOp,
    /// One cut/coverage query issued by the interest search while
    /// tracing arms (Claims 4.8/4.13) — counted *in addition to* the
    /// [`CostKind::CutQuery`] the evaluation itself records, so the
    /// ablation harness can attribute query volume to the arm tracing.
    InterestQuery,
    /// One table probe inside an LCA query: binary lifting charges one
    /// step per jump level examined (grows with `log depth`), the
    /// sparse-table RMQ path charges exactly one per query — the gauge
    /// the O(1)-query acceptance check reads.
    LcaStep,
    /// Anything else (bookkeeping, scans, sorts).
    Misc,
}

impl CostKind {
    pub const ALL: [CostKind; 10] = [
        CostKind::CutQuery,
        CostKind::RangeNode,
        CostKind::MongeEntry,
        CostKind::ForestEdge,
        CostKind::MstEdge,
        CostKind::Sample,
        CostKind::TreeOp,
        CostKind::InterestQuery,
        CostKind::LcaStep,
        CostKind::Misc,
    ];

    fn index(self) -> usize {
        match self {
            CostKind::CutQuery => 0,
            CostKind::RangeNode => 1,
            CostKind::MongeEntry => 2,
            CostKind::ForestEdge => 3,
            CostKind::MstEdge => 4,
            CostKind::Sample => 5,
            CostKind::TreeOp => 6,
            CostKind::InterestQuery => 7,
            CostKind::LcaStep => 8,
            CostKind::Misc => 9,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CostKind::CutQuery => "cut_query",
            CostKind::RangeNode => "range_node",
            CostKind::MongeEntry => "monge_entry",
            CostKind::ForestEdge => "forest_edge",
            CostKind::MstEdge => "mst_edge",
            CostKind::Sample => "sample",
            CostKind::TreeOp => "tree_op",
            CostKind::InterestQuery => "interest_query",
            CostKind::LcaStep => "lca_step",
            CostKind::Misc => "misc",
        }
    }
}

/// Atomic work/depth accumulator. Cheap to share (`&Meter`) across
/// rayon tasks; all counter updates are `Relaxed` (we only need totals,
/// never ordering).
#[derive(Debug)]
pub struct Meter {
    enabled: bool,
    counters: [AtomicU64; 10],
    /// phase name -> critical-path units recorded for that phase.
    depths: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::enabled()
    }
}

impl Meter {
    /// A meter that records.
    pub fn enabled() -> Self {
        Meter {
            enabled: true,
            counters: Default::default(),
            depths: Mutex::new(BTreeMap::new()),
        }
    }

    /// A meter that ignores everything (zero-cost fast path).
    pub fn disabled() -> Self {
        Meter {
            enabled: false,
            counters: Default::default(),
            depths: Mutex::new(BTreeMap::new()),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Count `amount` units of `kind` work.
    #[inline]
    pub fn add(&self, kind: CostKind, amount: u64) {
        if self.enabled {
            // Relaxed: independent event counters; totals are only read
            // from quiescent snapshots (`report`/`get` after a join).
            self.counters[kind.index()].fetch_add(amount, Ordering::Relaxed);
        }
    }

    /// Count one unit of `kind` work.
    #[inline]
    pub fn bump(&self, kind: CostKind) {
        self.add(kind, 1);
    }

    /// Record a critical-path contribution for `phase`, keeping the max
    /// (parallel composition: depth is the max over branches).
    pub fn record_depth(&self, phase: &'static str, depth: u64) {
        if self.enabled {
            let mut m = self.depths.lock();
            let d = m.entry(phase).or_insert(0);
            *d = (*d).max(depth);
        }
    }

    /// Current value of one counter.
    pub fn get(&self, kind: CostKind) -> u64 {
        // Relaxed: a statistical snapshot; callers read after the
        // metered parallel region has joined.
        self.counters[kind.index()].load(Ordering::Relaxed)
    }

    /// Snapshot all counters and depth gauges.
    pub fn report(&self) -> CostReport {
        let mut work = BTreeMap::new();
        for kind in CostKind::ALL {
            let v = self.get(kind);
            if v > 0 {
                work.insert(kind, v);
            }
        }
        CostReport { work, depth: self.depths.lock().clone() }
    }

    /// Reset all counters and gauges.
    pub fn reset(&self) {
        for c in &self.counters {
            // Relaxed: reset happens between metered regions, with no
            // concurrent writers to order against.
            c.store(0, Ordering::Relaxed);
        }
        self.depths.lock().clear();
    }
}

/// Immutable snapshot of a [`Meter`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostReport {
    pub work: BTreeMap<CostKind, u64>,
    pub depth: BTreeMap<&'static str, u64>,
}

impl CostReport {
    /// Total work across all kinds. [`CostKind::InterestQuery`] and
    /// [`CostKind::LcaStep`] are *attribution* gauges layered over work
    /// other counters already record (cut queries, tree probes), so they
    /// are excluded here to avoid double counting.
    pub fn total_work(&self) -> u64 {
        self.work
            .iter()
            .filter(|&(&k, _)| k != CostKind::InterestQuery && k != CostKind::LcaStep)
            .map(|(_, v)| v)
            .sum()
    }

    /// Work of one kind (0 if never recorded).
    pub fn work_of(&self, kind: CostKind) -> u64 {
        self.work.get(&kind).copied().unwrap_or(0)
    }

    /// Sum of all phase depths: an upper proxy for total critical path
    /// when phases run back-to-back.
    pub fn total_depth(&self) -> u64 {
        self.depth.values().sum()
    }

    /// Render a compact human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "work (ops):");
        for (k, v) in &self.work {
            let _ = writeln!(out, "  {:<12} {v}", k.name());
        }
        let _ = writeln!(out, "  {:<12} {}", "TOTAL", self.total_work());
        if !self.depth.is_empty() {
            let _ = writeln!(out, "depth (critical-path units):");
            for (p, d) in &self.depth {
                let _ = writeln!(out, "  {p:<24} {d}");
            }
            let _ = writeln!(out, "  {:<24} {}", "TOTAL", self.total_depth());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn counts_accumulate() {
        let m = Meter::enabled();
        m.bump(CostKind::CutQuery);
        m.add(CostKind::CutQuery, 4);
        m.add(CostKind::RangeNode, 10);
        assert_eq!(m.get(CostKind::CutQuery), 5);
        let r = m.report();
        assert_eq!(r.total_work(), 15);
        assert_eq!(r.work_of(CostKind::RangeNode), 10);
        assert_eq!(r.work_of(CostKind::Sample), 0);
    }

    #[test]
    fn disabled_records_nothing() {
        let m = Meter::disabled();
        m.add(CostKind::Misc, 100);
        m.record_depth("phase", 5);
        assert_eq!(m.report().total_work(), 0);
        assert_eq!(m.report().total_depth(), 0);
    }

    #[test]
    fn depth_max_and_sum_semantics() {
        let m = Meter::enabled();
        m.record_depth("pack", 3);
        m.record_depth("pack", 7);
        m.record_depth("pack", 5);
        assert_eq!(m.report().depth["pack"], 7);
        m.record_depth("cut", 5);
        assert_eq!(m.report().depth["cut"], 5);
        assert_eq!(m.report().total_depth(), 12);
    }

    #[test]
    fn concurrent_updates_sum() {
        let m = Meter::enabled();
        (0..1000u64).into_par_iter().for_each(|_| m.bump(CostKind::Misc));
        assert_eq!(m.get(CostKind::Misc), 1000);
    }

    #[test]
    fn reset_clears() {
        let m = Meter::enabled();
        m.add(CostKind::TreeOp, 9);
        m.record_depth("p", 1);
        m.reset();
        assert_eq!(m.report().total_work(), 0);
        assert!(m.report().depth.is_empty());
    }

    #[test]
    fn render_contains_names() {
        let m = Meter::enabled();
        m.add(CostKind::MongeEntry, 2);
        m.record_depth("single_path", 4);
        let text = m.report().render();
        assert!(text.contains("monge_entry"));
        assert!(text.contains("single_path"));
    }
}
