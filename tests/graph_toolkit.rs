//! Property-based tests for the graph-substrate extensions: LexBFS,
//! minimal triangulation, interval models, file formats and the
//! Theorem-5-guided chordal coalescing strategy — plus equivalence tests
//! that pin the sorted-row graph kernels (smallest-last elimination,
//! Briggs/George tests, Blair–Peyton cliques) to set-based specifications
//! of their definitions, and the worklist IRC allocator to the plain
//! scan formulation it replaces.

use coalesce_core::affinity::{Affinity, AffinityGraph, Coalescing};
use coalesce_core::chordal_strategy::{
    chordal_conservative_coalesce, result_is_k_colorable, ChordalMode,
};
use coalesce_core::conservative::{briggs_test, george_test};
use coalesce_core::irc::{self, IrcResult};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_gen::{families, graphs};
use coalesce_graph::format::{from_challenge, to_challenge, to_dimacs, ChallengeFile};
use coalesce_graph::{
    chordal, cliques, coloring, fillin, format, greedy, interval, lexbfs, stats, Graph, VertexId,
};
use coalesce_ir::function::Var;
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill;
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

/// The IRC allocator as a plain scan: every step looks for the first
/// qualifying vertex or move from index 0, and "move related" walks all
/// moves.  Cubic, but each choice is its definition; `irc::allocate` must
/// make exactly the same choices.
fn reference_irc(ag: &AffinityGraph, k: usize) -> IrcResult {
    let mut coalescing = Coalescing::identity(&ag.graph);

    // Move-related representative pairs (kept up to date lazily).
    let moves: Vec<(VertexId, VertexId)> = ag.affinities.iter().map(|a| (a.a, a.b)).collect();

    // The select stack of class representatives, plus whether they were
    // pushed as potential spills.
    let mut stack: Vec<(VertexId, bool)> = Vec::new();
    // Representatives already removed from the working graph.
    let mut removed: BTreeSet<VertexId> = BTreeSet::new();
    // Frozen moves no longer considered for coalescing.
    let mut frozen: BTreeSet<usize> = BTreeSet::new();

    // Working copy of the merged graph; vertices are physically removed as
    // they are simplified so that degrees reflect the residual graph.
    let mut work = coalescing.merged_graph.clone();

    let is_move_related = |moves: &[(VertexId, VertexId)],
                           frozen: &BTreeSet<usize>,
                           coalescing: &mut Coalescing,
                           removed: &BTreeSet<VertexId>,
                           v: VertexId| {
        moves.iter().enumerate().any(|(i, &(a, b))| {
            if frozen.contains(&i) {
                return false;
            }
            let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
            ra != rb && !removed.contains(&ra) && !removed.contains(&rb) && (ra == v || rb == v)
        })
    };

    loop {
        // --- simplify ---
        let simplifiable = work.vertices().find(|&v| {
            work.degree(v) < k && !is_move_related(&moves, &frozen, &mut coalescing, &removed, v)
        });
        if let Some(v) = simplifiable {
            work.remove_vertex(v);
            removed.insert(v);
            stack.push((v, false));
            continue;
        }

        // --- coalesce (Briggs, then George, both directions) ---
        let mut coalesced_something = false;
        for (i, &(a, b)) in moves.iter().enumerate() {
            if frozen.contains(&i) {
                continue;
            }
            let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
            if ra == rb || removed.contains(&ra) || removed.contains(&rb) {
                continue;
            }
            if work.has_edge(ra, rb) {
                // Constrained move: never coalescible; freeze it.
                frozen.insert(i);
                continue;
            }
            let ok = briggs_test(&work, k, ra, rb)
                || george_test(&work, k, ra, rb)
                || george_test(&work, k, rb, ra);
            if ok {
                work.merge(ra, rb);
                coalescing.merge(ra, rb);
                coalesced_something = true;
                break;
            }
        }
        if coalesced_something {
            continue;
        }

        // --- freeze ---
        let freezable = work.vertices().find(|&v| {
            work.degree(v) < k && is_move_related(&moves, &frozen, &mut coalescing, &removed, v)
        });
        if let Some(v) = freezable {
            for (i, &(a, b)) in moves.iter().enumerate() {
                let (ra, rb) = (coalescing.class_of(a), coalescing.class_of(b));
                if ra == v || rb == v {
                    frozen.insert(i);
                }
            }
            continue;
        }

        // --- potential spill ---
        let candidate = work.vertices().max_by_key(|&v| (work.degree(v), v.index()));
        match candidate {
            Some(v) => {
                work.remove_vertex(v);
                removed.insert(v);
                stack.push((v, true));
            }
            None => break, // graph empty: done
        }
    }

    // --- select ---
    let full_graph = &coalescing.merged_graph;
    let mut coloring = coloring::Coloring::new(full_graph.capacity());
    let mut spilled_reps: Vec<VertexId> = Vec::new();
    while let Some((v, _potential)) = stack.pop() {
        let used: BTreeSet<usize> = full_graph
            .neighbors(v)
            .filter_map(|n| coloring.color_of(n))
            .collect();
        let color = (0..k).find(|c| !used.contains(c));
        match color {
            Some(c) => coloring.assign(v, c),
            None => spilled_reps.push(v),
        }
    }

    // Expand spilled representatives to original vertices.
    let mut spilled: Vec<VertexId> = Vec::new();
    for class in coalescing.classes() {
        let rep = coalescing.class_of(*class.iter().next().expect("non-empty class"));
        if spilled_reps.contains(&rep) {
            for v in class {
                if ag.graph.is_live(v) {
                    spilled.push(v);
                }
            }
        }
    }
    spilled.sort();
    spilled.dedup();

    let stats = coalescing.stats(&ag.affinities);
    IrcResult {
        coloring,
        coalescing,
        spilled,
        stats,
    }
}

/// Asserts that `irc::allocate` and [`reference_irc`] agree on every
/// observable of the result: colors (through the classes and directly on
/// the representatives), classes, spills and statistics.  Returns the
/// spilled vertices.
fn assert_irc_matches_reference(ag: &AffinityGraph, k: usize, what: &str) -> Vec<VertexId> {
    let (got, want) = (irc::allocate(ag, k), reference_irc(ag, k));
    for v in (0..ag.graph.capacity()).map(VertexId::new) {
        assert_eq!(
            got.color_of(v),
            want.color_of(v),
            "{what}, k = {k}: color of {v}"
        );
        assert_eq!(
            got.coloring.color_of(v),
            want.coloring.color_of(v),
            "{what}, k = {k}: representative color of {v}"
        );
        assert_eq!(
            got.coalescing.class_of_immutable(v),
            want.coalescing.class_of_immutable(v),
            "{what}, k = {k}: class of {v}"
        );
    }
    assert_eq!(got.spilled, want.spilled, "{what}, k = {k}: spilled");
    assert_eq!(got.stats, want.stats, "{what}, k = {k}: stats");
    got.spilled
}

/// A random graph (partially merged, so retired identifiers sit between
/// live ones) with random weighted moves between live vertices: repeated
/// pairs give duplicate moves, and pairs whose classes come to interfere
/// after a merge give constrained moves.
fn graph_with_moves(max_n: usize) -> impl Strategy<Value = AffinityGraph> {
    (
        partially_merged_graph(max_n),
        proptest::collection::vec((0..max_n, 0..max_n, 1u64..5), 0..3 * max_n),
    )
        .prop_map(|(g, picks)| {
            let live: Vec<VertexId> = g.vertices().collect();
            let mut affinities = Vec::new();
            for (i, j, weight) in picks {
                let (a, b) = (live[i % live.len()], live[j % live.len()]);
                if a != b && !g.has_edge(a, b) {
                    affinities.push(Affinity::weighted(a, b, weight));
                    if weight == 1 {
                        affinities.push(Affinity::weighted(b, a, 2));
                    }
                }
            }
            AffinityGraph::new(g, affinities)
        })
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
    fn worklist_irc_makes_the_scan_allocators_choices(ag in graph_with_moves(14)) {
        let n = ag.graph.capacity();
        for k in (0..=6).chain([n + 1]) {
            assert_irc_matches_reference(&ag, k, "random graph");
        }
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

/// Every Chaitin–Briggs round of a generated module, replayed as
/// `chaitin_allocate` runs it (liveness, interference, IRC, spill
/// everywhere, rebuild, at most eight rounds): the worklist allocator and
/// the scan reference must agree on each round's graph.  Returns the
/// number of rounds compared.
fn compare_irc_on_chaitin_rounds(registers: impl Fn(usize) -> usize) -> usize {
    let mut calls = 0;
    for spec in &module_specs(&ModuleParams { functions: 30 }, 42) {
        let mut function = spec.generate();
        let k = registers(Liveness::compute(&function).maxlive_precise(&function));
        for round in 1..=8 {
            let liveness = Liveness::compute(&function);
            let ig = InterferenceGraph::build(&function, &liveness);
            let ag = AffinityGraph::from_interference(&ig);
            let what = format!("function {} round {round}", spec.index);
            let spilled = assert_irc_matches_reference(&ag, k, &what);
            calls += 1;
            if spilled.is_empty() || round == 8 {
                break;
            }
            let mut spill_result = spill::SpillResult::default();
            for v in spilled {
                spill::spill_everywhere(&mut function, Var::new(v.index()), &mut spill_result);
            }
        }
    }
    calls
}

/// The module at the benchmark's register count, `max(Maxlive / 2, 3)`.
#[test]
fn worklist_irc_makes_the_scan_allocators_choices_on_chaitin_rounds() {
    let calls = compare_irc_on_chaitin_rounds(|maxlive| (maxlive / 2).max(3));
    assert!(calls >= 30, "only {calls} rounds compared");
}

/// The module at 3 registers: heavy spilling, most functions run all
/// eight rounds.
#[test]
fn worklist_irc_makes_the_scan_allocators_choices_on_chaitin_rounds_at_k3() {
    let calls = compare_irc_on_chaitin_rounds(|_| 3);
    assert!(calls >= 30, "only {calls} rounds compared");
}
