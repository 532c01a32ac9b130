//! Property-based tests for the graph-substrate extensions: LexBFS,
//! minimal triangulation, interval models, file formats and the
//! Theorem-5-guided chordal coalescing strategy — plus equivalence tests
//! that pin the sorted-row graph kernels (smallest-last elimination,
//! Briggs/George tests, Blair–Peyton cliques) to set-based specifications
//! of their definitions.

use coalesce_core::affinity::{Affinity, AffinityGraph};
use coalesce_core::chordal_strategy::{
    chordal_conservative_coalesce, result_is_k_colorable, ChordalMode,
};
use coalesce_core::conservative::{briggs_test, george_test};
use coalesce_gen::{families, graphs};
use coalesce_graph::format::{from_challenge, to_challenge, to_dimacs, ChallengeFile};
use coalesce_graph::{
    chordal, cliques, coloring, fillin, format, greedy, interval, lexbfs, stats, Graph, VertexId,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arbitrary_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(any::<bool>(), len).prop_map(move |mask| {
            let mut g = Graph::new(n);
            for (present, &(i, j)) in mask.iter().zip(&pairs) {
                if *present {
                    g.add_edge(VertexId::new(i), VertexId::new(j));
                }
            }
            g
        })
    })
}

/// A random graph on which some non-adjacent pairs were merged, so the
/// capacity exceeds the live count and retired identifiers sit between
/// live ones.
fn partially_merged_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (
        arbitrary_graph(max_n),
        proptest::collection::vec((0..max_n, 0..max_n), 0..6),
    )
        .prop_map(|(mut g, merges)| {
            for (into, from) in merges {
                let (into, from) = (VertexId::new(into), VertexId::new(from));
                if into != from && g.is_live(into) && g.is_live(from) && !g.has_edge(into, from) {
                    g.merge(into, from);
                }
            }
            g
        })
}

/// Smallest-last elimination by definition: repeatedly remove the
/// remaining vertex of minimum `(degree, index)`, degrees counted afresh in
/// the remaining graph.  Returns the removal order and
/// `1 + max` degree at removal.
fn reference_smallest_last(g: &Graph) -> (Vec<VertexId>, usize) {
    let mut rest: BTreeSet<VertexId> = g.vertices().collect();
    let mut removal = Vec::new();
    let mut col = 0;
    while let Some((degree, v)) = rest
        .iter()
        .map(|&v| (g.neighbors(v).filter(|u| rest.contains(u)).count(), v))
        .min()
    {
        rest.remove(&v);
        removal.push(v);
        col = col.max(degree + 1);
    }
    (removal, col)
}

/// Briggs' rule by definition: build the merged vertex's neighborhood as a
/// set and count the members whose degree in the merged graph is ≥ `k`.
/// A neighbor of `a` or `b` keeps its neighbors outside `{a, b}` and gains
/// the merged vertex.
fn reference_briggs(g: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    let merged: BTreeSet<VertexId> = g
        .neighbors(a)
        .chain(g.neighbors(b))
        .filter(|&n| n != a && n != b)
        .collect();
    let significant = merged
        .iter()
        .filter(|&&n| g.neighbors(n).filter(|&m| m != a && m != b).count() + 1 >= k)
        .count();
    significant < k
}

/// George's rule by definition: the significant neighbors of `a` (other
/// than `b`) form a subset of `b`'s neighborhood.
fn reference_george(g: &Graph, k: usize, a: VertexId, b: VertexId) -> bool {
    let of_b: BTreeSet<VertexId> = g.neighbors(b).collect();
    g.neighbors(a)
        .filter(|&n| n != b && g.degree(n) >= k)
        .all(|n| of_b.contains(&n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn smallest_last_order_and_coloring_number_match_the_definition(
        g in partially_merged_graph(14)
    ) {
        let (mut removal, col) = reference_smallest_last(&g);
        removal.reverse();
        prop_assert_eq!(greedy::smallest_last_order(&g), removal);
        prop_assert_eq!(greedy::coloring_number(&g), col);
    }

    #[test]
    fn briggs_and_george_tests_match_the_set_based_definition(
        g in partially_merged_graph(12)
    ) {
        let live: Vec<VertexId> = g.vertices().collect();
        for k in 1..=6 {
            for &a in &live {
                for &b in &live {
                    if a == b {
                        continue;
                    }
                    prop_assert_eq!(
                        briggs_test(&g, k, a, b),
                        reference_briggs(&g, k, a, b),
                        "Briggs on ({:?}, {:?}) at k = {}", a, b, k
                    );
                    prop_assert_eq!(
                        george_test(&g, k, a, b),
                        reference_george(&g, k, a, b),
                        "George on ({:?}, {:?}) at k = {}", a, b, k
                    );
                }
            }
        }
    }

    #[test]
    fn chordal_cliques_match_bron_kerbosch_on_random_chordal_graphs(
        seed in 0u64..1000,
        n in 1usize..30,
        max_clique in 1usize..7,
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let g = graphs::random_chordal_graph(n, max_clique, &mut rng);
        let found: BTreeSet<BTreeSet<VertexId>> = chordal::chordal_maximal_cliques(&g)
            .expect("generator output is chordal")
            .into_iter()
            .collect();
        let expected: BTreeSet<BTreeSet<VertexId>> =
            cliques::maximal_cliques(&g).into_iter().collect();
        prop_assert_eq!(&found, &expected);
        let witness = chordal::chordal_max_clique(&g).expect("chordal");
        prop_assert_eq!(witness.len(), cliques::clique_number(&g));
        prop_assert!(witness.windows(2).all(|w| w[0] < w[1]), "witness not ascending");
        prop_assert!(expected.contains(&witness.iter().copied().collect::<BTreeSet<_>>()));
    }

    #[test]
    fn lexbfs_and_mcs_agree_on_chordality(g in arbitrary_graph(9)) {
        prop_assert_eq!(chordal::is_chordal(&g), lexbfs::is_chordal_lexbfs(&g));
    }

    #[test]
    fn mcs_m_produces_a_chordal_supergraph_with_a_valid_peo(g in arbitrary_graph(9)) {
        let tri = fillin::mcs_m(&g);
        prop_assert!(chordal::is_chordal(&tri.graph));
        prop_assert!(chordal::is_perfect_elimination_ordering(
            &tri.graph,
            &tri.elimination_order
        ));
        // Fill edges are new edges.
        for &(a, b) in &tri.fill_edges {
            prop_assert!(!g.has_edge(a, b));
            prop_assert!(tri.graph.has_edge(a, b));
        }
        // Chordal inputs need no fill.
        if chordal::is_chordal(&g) {
            prop_assert_eq!(tri.fill_in(), 0);
        }
    }

    #[test]
    fn mcs_m_fill_is_minimal_on_small_graphs(g in arbitrary_graph(7)) {
        let tri = fillin::mcs_m(&g);
        prop_assert!(fillin::is_minimal_triangulation(&g, &tri));
    }

    #[test]
    fn dimacs_round_trip_preserves_edges(g in arbitrary_graph(10)) {
        let text = to_dimacs(&g);
        let parsed = format::from_dimacs(&text).expect("writer output parses");
        prop_assert_eq!(parsed.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(parsed.has_edge(u, v));
        }
    }

    #[test]
    fn challenge_round_trip_preserves_instances(
        g in arbitrary_graph(8),
        weights in proptest::collection::vec(1u64..100, 0..6),
        k in 2usize..8,
    ) {
        // Build affinities between non-adjacent pairs.
        let live: Vec<VertexId> = g.vertices().collect();
        let mut affinities = Vec::new();
        let mut it = weights.iter();
        'outer: for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if !g.has_edge(a, b) {
                    match it.next() {
                        Some(&w) => affinities.push((a, b, w)),
                        None => break 'outer,
                    }
                }
            }
        }
        let file = ChallengeFile { graph: g.clone(), affinities: affinities.clone(), registers: Some(k) };
        let parsed = from_challenge(&to_challenge(&file)).expect("round trip");
        prop_assert_eq!(parsed.registers, Some(k));
        prop_assert_eq!(parsed.affinities, affinities);
        prop_assert_eq!(parsed.graph.num_edges(), g.num_edges());
    }

    #[test]
    fn interval_models_realise_their_own_intersection_graphs(
        spans in proptest::collection::vec((0usize..20, 0usize..6), 1..8)
    ) {
        let model = interval::IntervalModel::new(
            spans.len(),
            spans.iter().enumerate().map(|(i, &(s, len))| (VertexId::new(i), s, s + len)),
        );
        let g = model.to_graph();
        prop_assert!(model.is_model_of(&g));
        prop_assert!(interval::is_interval_graph(&g));
        let recovered = interval::interval_model(&g).expect("interval graph has a model");
        prop_assert!(recovered.is_model_of(&g));
        prop_assert_eq!(model.max_overlap(), cliques::clique_number(&g));
    }

    #[test]
    fn graph_stats_are_internally_consistent(g in arbitrary_graph(9)) {
        let st = stats::GraphStats::compute(&g, 16);
        prop_assert_eq!(st.vertices, g.num_vertices());
        prop_assert_eq!(st.edges, g.num_edges());
        prop_assert!(st.min_degree <= st.max_degree);
        prop_assert!(st.clique_number <= st.vertices.max(1));
        // col(G) is an upper bound on χ(G) which is at least ω(G).
        if st.clique_bound_is_exact() {
            prop_assert!(st.coloring_number() >= st.clique_number);
        }
        let hist = stats::degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn chordal_strategy_outputs_are_k_colorable_on_random_interval_graphs(
        seed in 0u64..500,
        n in 4usize..12,
    ) {
        let mut rng = coalesce_gen::rng(seed);
        let (g, _intervals) = graphs::random_interval_graph(n, 8, 3, &mut rng);
        prop_assume!(chordal::is_chordal(&g));
        let omega = chordal::chordal_clique_number(&g).unwrap_or(0).max(1);
        let k = omega + 1;
        // Affinities between the first few non-adjacent pairs.
        let live: Vec<VertexId> = g.vertices().collect();
        let mut affinities = Vec::new();
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                if !g.has_edge(a, b) && affinities.len() < 5 {
                    affinities.push(Affinity::new(a, b));
                }
            }
        }
        let ag = AffinityGraph::new(g, affinities);
        for mode in [ChordalMode::MergeWitnessClass, ChordalMode::FillIn] {
            let result = chordal_conservative_coalesce(&ag, k, mode)
                .expect("chordal instance within hypotheses");
            prop_assert!(result_is_k_colorable(&result, k));
        }
    }
}

#[test]
fn named_families_expose_the_expected_structure_to_the_strategies() {
    // The interval staircase is the "easy" chordal case: every strategy can
    // run on it and the coloring number equals the clique number.
    let g = families::interval_staircase(20, 3);
    let st = stats::GraphStats::compute(&g, 32);
    assert!(st.chordal);
    assert!(st.interval);
    assert_eq!(st.coloring_number(), st.clique_number);

    // The Mycielski graph is the adversarial case: clique number 2, growing
    // chromatic number — greedy reasoning about colors is maximally wrong.
    let m4 = families::mycielski(4);
    assert_eq!(cliques::clique_number(&m4), 2);
    assert_eq!(coloring::chromatic_number(&m4), 4);
    assert!(!chordal::is_chordal(&m4));
}
