//! Property-based tests over the core invariants (proptest).
//!
//! Strategy: generate small random connected weighted graphs (and trees
//! where needed) and check the algebraic identities and cross-algorithm
//! agreements the pipeline is built on.

use parallel_mincut::prelude::*;
use pmc_graph::generators;
use pmc_tree::{PathDecomposition, PathStrategy, RootedTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A connected weighted graph from a compact description.
fn graph_from(n: usize, extra: usize, max_w: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm_connected(n.max(2), extra, max_w.max(1), &mut rng)
}

fn spanning_tree(g: &Graph, root: u32) -> std::sync::Arc<RootedTree> {
    let forest = pmc_parallel::spanning_forest::spanning_forest(g, &Meter::disabled());
    let edges: Vec<(u32, u32)> =
        forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
    std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &edges, root))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The full pipeline is exact on arbitrary small connected graphs.
    #[test]
    fn pipeline_matches_stoer_wagner(
        n in 4usize..20,
        extra in 0usize..40,
        max_w in 1u64..50,
        seed in 0u64..1000,
    ) {
        let g = graph_from(n, extra, max_w, seed);
        let expect = stoer_wagner_mincut(&g).value;
        let got = exact_mincut(&g, &ExactParams { seed, ..ExactParams::default() });
        prop_assert_eq!(got.cut.value, expect);
    }

    /// Without a hint, λ̃ = ⌊β/(2+ε)⌋ from Matula's bracket never
    /// exceeds λ, so Theorem 2.4's `p` needs no w.h.p. caveat; heavy
    /// weights make the skeleton sample.
    #[test]
    fn matula_lambda_estimate_never_exceeds_lambda(
        n in 3usize..20,
        extra in 0usize..40,
        max_w in 1u64..1_000_000,
        seed in 0u64..1000,
    ) {
        let g = graph_from(n, extra, max_w, seed);
        let expect = stoer_wagner_mincut(&g).value;
        let got = exact_mincut(&g, &ExactParams { seed, ..ExactParams::default() });
        prop_assert!(got.stats.lambda_estimate <= expect);
        prop_assert_eq!(got.cut.value, expect);
    }

    /// The weight domain's edge: graphs scaled to a total weight just
    /// under `TOTAL_WEIGHT_LIMIT` parse, and the pipeline still agrees
    /// with Stoer–Wagner (no `i64` coverage or `u64` sum overflows).
    #[test]
    fn pipeline_exact_just_under_the_weight_limit(
        n in 3usize..12,
        extra in 0usize..20,
        seed in 0u64..1000,
    ) {
        let small = graph_from(n, extra, 1000, seed);
        let limit = pmc_graph::TOTAL_WEIGHT_LIMIT as u128;
        let total = small.total_weight() as u128;
        let edges = small.edges().iter().map(|e| {
            (e.u, e.v, (e.w as u128 * (limit - 1) / total) as u64)
        });
        let text = pmc_graph::io::write_graph(&Graph::from_edges(small.n(), edges));
        let g = pmc_graph::io::parse_graph(&text).expect("total below the limit parses");
        prop_assert!(g.total_weight() as u128 > limit - limit / 64);
        let expect = stoer_wagner_mincut(&g).value;
        let got = exact_mincut(&g, &ExactParams { seed, ..ExactParams::default() });
        prop_assert_eq!(got.cut.value, expect);
    }

    /// cut(e, f) from the range structure equals the partition value.
    #[test]
    fn cut_queries_match_partitions(
        n in 4usize..16,
        extra in 0usize..30,
        seed in 0u64..1000,
    ) {
        let g = graph_from(n, extra, 9, seed);
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = pmc_mincut::CutQuery::build(&g, &t, &lca, 0.4, &Meter::disabled());
        let m = Meter::disabled();
        for e in 1..g.n() as u32 {
            for f in e + 1..g.n() as u32 {
                let side_vs = q.cut_side(e, f);
                let mut side = vec![false; g.n()];
                for &v in &side_vs {
                    side[v as usize] = true;
                }
                prop_assert_eq!(q.cut(e, f, &m), cut_of_partition(&g, &side));
            }
        }
    }

    /// The filtered 2-respecting solver equals the all-pairs oracle.
    #[test]
    fn filtered_solver_equals_naive(
        n in 4usize..18,
        extra in 0usize..35,
        seed in 0u64..1000,
    ) {
        let g = graph_from(n, extra, 9, seed);
        let t = spanning_tree(&g, 0);
        let fast = two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &Meter::disabled());
        let naive = naive_two_respecting(&g, &t, 0.4, &Meter::disabled());
        prop_assert_eq!(fast.cut.value, naive.cut.value);
    }

    /// Single-path cut matrices satisfy the paper's partial-Monge
    /// (supermodular) inequality in every off-diagonal 2x2 window.
    #[test]
    fn single_path_matrices_supermodular(
        n in 6usize..16,
        extra in 0usize..25,
        seed in 0u64..500,
    ) {
        let g = graph_from(n, extra, 7, seed);
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = pmc_mincut::CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        let d = PathDecomposition::build(&t, PathStrategy::default(), &m);
        for p in d.paths() {
            let l = p.len();
            for i in 0..l.saturating_sub(1) {
                for j in i + 2..l.saturating_sub(1) {
                    let a = q.cut(p[i], p[j], &m) as i128 + q.cut(p[i + 1], p[j + 1], &m) as i128;
                    let b = q.cut(p[i], p[j + 1], &m) as i128 + q.cut(p[i + 1], p[j], &m) as i128;
                    prop_assert!(a >= b);
                }
            }
        }
    }

    /// k-certificates never increase cuts and preserve small cuts
    /// exactly (random partitions instead of exhaustive).
    #[test]
    fn certificates_preserve_small_cuts(
        n in 4usize..14,
        extra in 0usize..25,
        k in 1u64..8,
        seed in 0u64..500,
    ) {
        let g = graph_from(n, extra, 4, seed);
        let h = pmc_sparsify::k_certificate(&g, k, &Meter::disabled());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        use rand::Rng;
        for _ in 0..20 {
            let side: Vec<bool> = (0..g.n()).map(|_| rng.random::<bool>()).collect();
            if side.iter().all(|&b| b) || side.iter().all(|&b| !b) {
                continue;
            }
            let cg = cut_of_partition(&g, &side);
            let ch = cut_of_partition(&h, &side);
            prop_assert!(ch <= cg);
            if cg <= k {
                prop_assert_eq!(ch, cg);
            } else {
                prop_assert!(ch >= k);
            }
        }
    }

    /// Interest arms cover the brute-force interesting set.
    #[test]
    fn interest_arms_cover(
        n in 5usize..16,
        extra in 2usize..30,
        seed in 0u64..500,
    ) {
        let g = graph_from(n, extra, 9, seed);
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = pmc_mincut::CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        let engine = pmc_mincut::InterestEngine::build(&t, InterestStrategy::default(), &m);
        let is = pmc_mincut::InterestSearch::new(&q, &lca, &engine);
        for e in 1..g.n() as u32 {
            let arms = is.arms(e, &m);
            let mut cover = std::collections::HashSet::new();
            for mut v in [arms.de, arms.ce] {
                loop {
                    cover.insert(v);
                    if v == t.root() {
                        break;
                    }
                    v = t.parent(v);
                }
            }
            for f in is.brute_interesting_set(e, &m) {
                prop_assert!(cover.contains(&f), "edge {} not covered for e={}", f, e);
            }
        }
    }

    /// Claim 4.8 as a property: the interesting set `Π(e)` is a single
    /// tree path through `e` — connected, and no vertex of `Π(e) ∪ {e}`
    /// is incident to more than two of its edges — and the centroid
    /// descent locates exactly its (unique) brute-force arm endpoints.
    #[test]
    fn interesting_set_is_single_path(
        n in 5usize..16,
        extra in 2usize..32,
        max_w in 1u64..10,
        seed in 0u64..500,
    ) {
        let g = graph_from(n, extra, max_w, seed);
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = pmc_mincut::CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        let engine = pmc_mincut::InterestEngine::build(&t, InterestStrategy::default(), &m);
        let is = pmc_mincut::InterestSearch::new(&q, &lca, &engine);
        for e in 1..g.n() as u32 {
            let set = is.brute_interesting_set(e, &m);
            let path: std::collections::HashSet<u32> =
                set.iter().copied().chain([e]).collect();
            // Connectivity: every edge of Π(e) reaches e through
            // interesting edges only.
            for &f in &set {
                let l = lca.lca(e, f);
                for mut cur in [f, e] {
                    while cur != l {
                        prop_assert!(
                            path.contains(&cur),
                            "e={}: gap at {} on the way to lca", e, cur
                        );
                        cur = t.parent(cur);
                    }
                }
            }
            // Branchlessness: a path's edge set touches each vertex at
            // most twice. Edge `v` is incident to vertices v and
            // parent(v).
            let mut incident = std::collections::HashMap::new();
            for &v in &path {
                *incident.entry(v).or_insert(0u32) += 1;
                *incident.entry(t.parent(v)).or_insert(0u32) += 1;
            }
            for (v, deg) in incident {
                prop_assert!(deg <= 2, "e={}: Π(e)∪{{e}} branches at vertex {}", e, v);
            }
            // Tightness: de is the deepest interesting strict
            // descendant of e (or e itself), ce the deepest interesting
            // edge incomparable with e (or e itself).
            let arms = is.arms(e, &m);
            let brute = is.brute_arms(e, &m);
            prop_assert_eq!(arms.de, brute.de, "de not tight at e={}", e);
            prop_assert_eq!(arms.ce, brute.ce, "ce not tight at e={}", e);
        }
    }

    /// Graph text format round-trips arbitrary graphs.
    #[test]
    fn io_round_trip(
        n in 2usize..20,
        extra in 0usize..40,
        max_w in 1u64..1000,
        seed in 0u64..1000,
    ) {
        let g = graph_from(n, extra, max_w, seed);
        let text = pmc_graph::io::write_graph(&g);
        let g2 = pmc_graph::io::parse_graph(&text).unwrap();
        prop_assert_eq!(g.edges(), g2.edges());
        prop_assert_eq!(g.n(), g2.n());
    }

    /// The radix sort matches the std sort.
    #[test]
    fn radix_sort_matches_std(values in prop::collection::vec(0u64..1_000_000, 0..2000)) {
        let mut sorted = values.clone();
        pmc_parallel::sort::radix_sort_lsd(&mut sorted, |&k| k);
        let mut expect = values.clone();
        expect.sort_unstable();
        prop_assert_eq!(sorted, expect);
    }

    /// The stable LSD radix sort (the paper's sorting primitive) is
    /// bit-identical to the stable std sort under forced 1/2/4-thread
    /// pools — lengths straddle the sequential cutoff so both the
    /// fallback and the parallel pass loop are exercised.
    #[test]
    fn radix_lsd_matches_stable_sort_across_pools(
        len in 0usize..12_000,
        mask_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Narrow masks force heavy key collisions (stability stress);
        // the full mask exercises all radix passes.
        let mask = [0x7u64, 0xff, u64::MAX][mask_idx];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        use rand::Rng;
        let keys: Vec<(u64, u64)> =
            (0..len as u64).map(|i| (rng.random_range(0..u64::MAX) & mask, i)).collect();
        let mut expect = keys.clone();
        expect.sort_by_key(|&(k, _)| k);
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(|| {
                let mut v = keys.clone();
                pmc_parallel::sort::radix_sort_lsd(&mut v, |&(k, _)| k);
                v
            });
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Two stable LSD passes, low word then high word, reproduce the
    /// comparison sort's (hi, lo) order at every pool width — the
    /// composition a radix sort by a multi-word key rests on.
    #[test]
    fn composite_radix_matches_comparison_across_pools(
        len in 0usize..10_000,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
        use rand::Rng;
        let items: Vec<(u64, u64, u64)> = (0..len as u64)
            .map(|i| (rng.random_range(0..64), rng.random_range(0..u64::MAX), i))
            .collect();
        let mut expect = items.clone();
        expect.sort_by_key(|&(h, l, _)| (h, l));
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(|| {
                let mut v = items.clone();
                pmc_parallel::sort::radix_sort_lsd(&mut v, |&(_, l, _)| l);
                pmc_parallel::sort::radix_sort_lsd(&mut v, |&(h, _, _)| h);
                v
            });
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Capped binomial sampling respects its bounds.
    #[test]
    fn binomial_capped_bounds(
        n in 0u64..1_000_000,
        p in 0.0f64..1.0,
        cap in 0u64..500,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = pmc_sparsify::binomial_capped(n, p, cap, &mut rng);
        prop_assert!(x <= cap);
        prop_assert!(x <= n);
    }

    /// SMAWK, divide-and-conquer, and a brute row scan agree on values
    /// AND leftmost argmins over random submodular Monge matrices, and
    /// SMAWK's metered distinct-entry count stays within its linear
    /// budget — undercutting D&C whenever D&C does nontrivial work
    /// (tiny instances where D&C's count sits at its additive floor are
    /// exempt; the calibrated threshold is `dc >= 3(r+c)`).
    #[test]
    fn smawk_matches_dc_and_brute_on_monge(
        rows in 1usize..40,
        cols in 1usize..40,
        density in 0u64..5,
        span in 1u64..1000,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51AA);
        use rand::Rng;
        // Submodular Monge construction: row/col offsets plus the
        // negated 2-D prefix sum of a non-negative grid — the mixed
        // second difference is `-d[i+1][j+1] <= 0`. Small `density`
        // produces plenty of ties, stressing the leftmost-argmin rule.
        let a: Vec<u64> = (0..rows).map(|_| rng.random_range(0..span)).collect();
        let b: Vec<u64> = (0..cols).map(|_| rng.random_range(0..span)).collect();
        let mut p = vec![vec![0u64; cols + 1]; rows + 1];
        for i in 1..=rows {
            for j in 1..=cols {
                let d = rng.random_range(0..=density);
                p[i][j] = p[i - 1][j] + p[i][j - 1] + d - p[i - 1][j - 1];
            }
        }
        let big = span + p[rows][cols];
        let f = |i: usize, j: usize| big + a[i] + b[j] - p[i + 1][j + 1];
        prop_assert!(pmc_monge::is_submodular(rows, cols, f));
        let (ms, md) = (Meter::enabled(), Meter::enabled());
        let sm = pmc_monge::smawk_row_minima(rows, cols, f, &ms);
        let dc = pmc_monge::dc_row_minima(rows, cols, f, &md);
        for i in 0..rows {
            let (mut bj, mut bv) = (0usize, f(i, 0));
            for j in 1..cols {
                let v = f(i, j);
                if v < bv {
                    bv = v;
                    bj = j;
                }
            }
            prop_assert_eq!(sm[i].value, bv, "smawk value, row {}", i);
            prop_assert_eq!(sm[i].col, bj, "smawk leftmost argmin, row {}", i);
            prop_assert_eq!(dc[i].value, bv, "dc value, row {}", i);
            prop_assert_eq!(dc[i].col, bj, "dc leftmost argmin, row {}", i);
        }
        let (se, de) = (ms.get(CostKind::MongeEntry), md.get(CostKind::MongeEntry));
        let budget = 4 * (rows + cols) as u64 + 8;
        prop_assert!(se <= budget, "smawk evals {} exceed linear budget {}", se, budget);
        if de >= 3 * (rows + cols) as u64 {
            prop_assert!(se <= de, "smawk {} > dc {} at {}x{}", se, de, rows, cols);
        }
    }

    /// The engine's sparse-table (Euler tour) LCA equals its binary
    /// lifting table on random rooted trees under forced 1/2/4-thread
    /// pools, charging exactly one [`CostKind::LcaStep`] per query.
    #[test]
    fn sparse_and_lifting_lca_agree_across_pools(
        n in 2u32..400,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1CA);
        use rand::Rng;
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        let t = RootedTree::from_parents(0, &parent);
        let pairs: Vec<(u32, u32)> = (0..64)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let steps = pool.install(|| {
                let engine = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
                let lifting = engine.table();
                let meter = Meter::enabled();
                for &(x, y) in &pairs {
                    let l = lifting.lca(x, y);
                    assert_eq!(engine.lca(x, y), l, "lca({x},{y}) at {threads} threads");
                    assert_eq!(engine.lca_metered(x, y, &meter), l);
                    assert_eq!(engine.distance(x, y), lifting.distance(x, y));
                }
                meter.get(CostKind::LcaStep)
            });
            prop_assert_eq!(steps, pairs.len() as u64, "O(1): one step per sparse query");
        }
    }
}
