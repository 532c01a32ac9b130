//! Chordal graph machinery: Maximum Cardinality Search, perfect elimination
//! orderings, chordality testing, optimal coloring of chordal graphs, and
//! clique number computation.
//!
//! Chordal graphs are central to the paper: Theorem 1 shows that the
//! interference graph of a strict SSA program is chordal with clique number
//! equal to `Maxlive`, and Theorem 5 gives a polynomial incremental
//! conservative coalescing algorithm on chordal graphs.
//!
//! A graph is *chordal* iff every cycle of length at least 4 has a chord,
//! or equivalently iff it admits a *perfect elimination ordering* (PEO):
//! an ordering `v1, ..., vn` such that for every `vi`, the neighbors of
//! `vi` occurring **later** in the ordering form a clique.  Maximum
//! Cardinality Search (MCS) produces such an ordering exactly when the
//! graph is chordal (Golumbic, *Algorithmic Graph Theory and Perfect
//! Graphs*, the reference [20] of the paper).

use crate::coloring::Coloring;
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// The result of one [`mcs_clique_forest`] pass: the MCS visit order, the
/// chordality verdict, and the Blair–Peyton clique-tree skeleton derived
/// from the same run.
///
/// Everything is computed in a single `O(V + E)` sweep (the adjacency
/// rows are flat sorted slices, so the neighbor scans carry no
/// per-element set overhead), which is what
/// makes [`chordal_maximal_cliques`] and
/// [`crate::cliquetree::CliqueTree::build`] linear instead of quadratic.
///
/// Cliques are plain vectors in discovery order, **not sorted**: a clique
/// is its starter's `M(v)` in row order, then the starter, then the
/// joiners in visit order.  Callers that only measure or discard them (the
/// chordality test, the clique number) pay no set construction; the public
/// exits that hand cliques out convert them to sorted sets.
pub(crate) struct CliqueForest {
    /// Vertices in MCS **visit** order (first visited first).  The reverse
    /// is the elimination order [`maximum_cardinality_search`] returns.
    pub visit_order: Vec<VertexId>,
    /// `true` iff the reverse of `visit_order` is a perfect elimination
    /// ordering, i.e. iff the graph is chordal.  When `false` the clique
    /// and edge fields are meaningless and must not be used.
    pub chordal: bool,
    /// The maximal cliques, in discovery order (at most one per vertex).
    /// Members are unsorted (see the type documentation).
    pub cliques: Vec<Vec<VertexId>>,
    /// Clique-tree edges: the Blair–Peyton parent links, plus one
    /// (empty-separator) stitch edge per extra connected component so the
    /// node set always forms a single tree.
    pub tree_edges: Vec<(usize, usize)>,
}

/// Runs MCS with a bucket queue and derives the maximal cliques and the
/// clique-tree edges directly from the run, following Blair & Peyton's
/// clique-tree algorithm (*An Introduction to Chordal Graphs and Clique
/// Trees*, Fig. 4; the MCS treatment is Golumbic's, the paper's reference
/// [20]).
///
/// The visit loop is the classical lazy-deletion bucket queue: every
/// unvisited vertex has a valid entry in `buckets[weight(v)]`, stale
/// entries are skipped on pop, and the running maximum only ever rises by
/// one per visit, so the whole selection costs `O(V + E)`.
///
/// A vertex *starts a new clique* exactly when its visited-neighbor count
/// fails to grow past the previous vertex's (Blair–Peyton); its visited
/// neighborhood `M(v)` seeds the clique and the tree edge goes to the
/// clique of the most recently visited vertex of `M(v)`.  Chordality is
/// then verified by a Tarjan–Yannakakis pass over the elimination order
/// (timestamped neighborhood bitmap, no per-edge set lookups), so the
/// whole routine does `O(V + E)` work, slice scans included.
pub(crate) fn mcs_clique_forest(g: &Graph) -> CliqueForest {
    let cap = g.capacity();
    let n = g.num_vertices();
    let mut weight = vec![0usize; cap];
    let mut visited = vec![false; cap];
    let mut visit_pos = vec![usize::MAX; cap];
    let mut clique_of = vec![usize::MAX; cap];
    let mut visit_order: Vec<VertexId> = Vec::with_capacity(n);
    let mut cliques: Vec<Vec<VertexId>> = Vec::new();
    let mut tree_edges: Vec<(usize, usize)> = Vec::new();

    // buckets[w] holds candidates whose weight may be w; a vertex's entry
    // in buckets[weight(v)] is always valid, older entries are stale.
    let mut buckets: Vec<Vec<VertexId>> = vec![g.vertices().collect()];
    let mut max_w = 0usize;
    // Visited-neighbor count of the previously visited vertex; MAX is the
    // "no previous vertex" sentinel so the first vertex starts a clique.
    let mut prev_card = usize::MAX;
    // Pops (valid and stale) plus pushes; reported once at the end so the
    // hot loop only touches a local.
    let mut bucket_ops: u64 = 0;

    while visit_order.len() < n {
        let v = loop {
            match buckets[max_w].pop() {
                Some(c) if !visited[c.index()] && weight[c.index()] == max_w => {
                    bucket_ops += 1;
                    break c;
                }
                Some(_) => {
                    bucket_ops += 1;
                    continue; // stale entry
                }
                None => max_w -= 1, // bucket exhausted; the max can only drop
            }
        };
        visited[v.index()] = true;
        visit_pos[v.index()] = visit_order.len();
        visit_order.push(v);
        let card = weight[v.index()];

        if prev_card == usize::MAX || card <= prev_card {
            // M(v): the already-visited neighbors, and the one visited
            // last (only clique starters need the set materialised).  The
            // buffer has room for v, so it becomes the clique as is.
            let mut m_last: Option<VertexId> = None;
            let mut m_v: Vec<VertexId> = Vec::with_capacity(card + 1);
            for u in g.neighbors(v) {
                if visited[u.index()] && u != v {
                    m_v.push(u);
                    if m_last.is_none_or(|l| visit_pos[u.index()] > visit_pos[l.index()]) {
                        m_last = Some(u);
                    }
                }
            }
            debug_assert_eq!(m_v.len(), card);
            // v begins a new clique C_s = M(v) ∪ {v}.
            let s = cliques.len();
            match m_last {
                // Tree edge to the clique of the most recent M(v) member;
                // M(v) (the separator) is contained in that clique.
                Some(last) => tree_edges.push((s, clique_of[last.index()])),
                // New connected component: stitch it to the previous
                // clique so the forest stays one tree (empty separator).
                None if s > 0 => tree_edges.push((s, s - 1)),
                None => {}
            }
            m_v.push(v);
            cliques.push(m_v);
        } else {
            // v joins the clique under construction.
            cliques
                .last_mut()
                .expect("a clique exists once a vertex was visited")
                .push(v);
        }
        clique_of[v.index()] = cliques.len() - 1;
        prev_card = card;

        // Bump the unvisited neighbors' weights into their new buckets.
        for u in g.neighbors(v) {
            if !visited[u.index()] {
                let w = weight[u.index()] + 1;
                weight[u.index()] = w;
                if w >= buckets.len() {
                    buckets.resize(w + 1, Vec::new());
                }
                buckets[w].push(u);
                bucket_ops += 1;
            }
        }
        // The maximum weight can rise by at most one per visit.
        if max_w + 1 < buckets.len() {
            max_w += 1;
        }
    }

    // Tarjan–Yannakakis chordality test over the elimination order (the
    // reverse of the visit order).  Each vertex defers its later
    // (earlier-visited) neighborhood minus its parent to that parent,
    // which must contain the deferred set in its own neighborhood; a
    // timestamped bitmap makes every membership test O(1), so the whole
    // pass is O(V + E) with no per-edge set lookups.
    let mut chordal = true;
    let mut mark = vec![usize::MAX; cap];
    let mut deferred: Vec<Vec<VertexId>> = vec![Vec::new(); cap];
    'elimination: for i in (0..n).rev() {
        let v = visit_order[i];
        for u in g.neighbors(v) {
            mark[u.index()] = i;
        }
        for w in deferred[v.index()].drain(..) {
            if mark[w.index()] != i {
                chordal = false;
                break 'elimination;
            }
        }
        // Parent: the most recently visited member of M(v).
        let mut parent: Option<VertexId> = None;
        for u in g.neighbors(v) {
            if visit_pos[u.index()] < i
                && parent.is_none_or(|p| visit_pos[u.index()] > visit_pos[p.index()])
            {
                parent = Some(u);
            }
        }
        if let Some(p) = parent {
            for u in g.neighbors(v) {
                if visit_pos[u.index()] < i && u != p {
                    deferred[p.index()].push(u);
                }
            }
        }
    }

    coalesce_stats::counter!("mcs.bucket_ops", bucket_ops);
    coalesce_stats::counter!("cliquetree.nodes", cliques.len() as u64);

    CliqueForest {
        visit_order,
        chordal,
        cliques,
        tree_edges,
    }
}

/// Runs Maximum Cardinality Search on the live part of `g`.
///
/// Returns the vertices in **elimination order**: the returned sequence is a
/// perfect elimination ordering iff `g` is chordal.  (MCS itself numbers
/// vertices from `n` down to `1`; we return the order `1..n`, i.e. the
/// reverse of the visit order.)
///
/// Runs in `O(V + E)` via a bucket queue with lazy deletion.
///
/// ```
/// use coalesce_graph::{Graph, chordal};
/// let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
/// let order = chordal::maximum_cardinality_search(&g);
/// assert_eq!(order.len(), 3);
/// ```
pub fn maximum_cardinality_search(g: &Graph) -> Vec<VertexId> {
    let mut order = mcs_clique_forest(g).visit_order;
    order.reverse();
    order
}

/// Checks whether `order` (a permutation of the live vertices of `g`) is a
/// perfect elimination ordering of `g`.
///
/// Uses the classical parent test: for each vertex `v`, let `p` be its first
/// later neighbor in the order; every other later neighbor of `v` must also
/// be a neighbor of `p`.
pub fn is_perfect_elimination_ordering(g: &Graph, order: &[VertexId]) -> bool {
    if order.len() != g.num_vertices() {
        return false;
    }
    let cap = g.capacity();
    let mut position = vec![usize::MAX; cap];
    for (i, &v) in order.iter().enumerate() {
        if !g.is_live(v) || position[v.index()] != usize::MAX {
            return false;
        }
        position[v.index()] = i;
    }
    for &v in order {
        let pv = position[v.index()];
        // Later neighbors of v.
        let mut later: Vec<VertexId> = g
            .neighbors(v)
            .filter(|u| position[u.index()] > pv)
            .collect();
        if later.len() <= 1 {
            continue;
        }
        later.sort_by_key(|u| position[u.index()]);
        let parent = later[0];
        for &u in &later[1..] {
            if !g.has_edge(parent, u) {
                return false;
            }
        }
    }
    true
}

/// Returns a perfect elimination ordering of `g`, or `None` if `g` is not
/// chordal.  `O(V + E)`: the chordality verdict comes out of the same MCS
/// sweep that produces the order.
pub fn perfect_elimination_ordering(g: &Graph) -> Option<Vec<VertexId>> {
    let forest = mcs_clique_forest(g);
    forest.chordal.then(|| {
        let mut order = forest.visit_order;
        order.reverse();
        order
    })
}

/// Returns `true` iff the live part of `g` is a chordal graph.
///
/// ```
/// use coalesce_graph::{Graph, chordal};
/// // C4 is the smallest non-chordal graph.
/// let c4 = Graph::with_edges(4, [
///     (0.into(), 1.into()), (1.into(), 2.into()),
///     (2.into(), 3.into()), (3.into(), 0.into()),
/// ]);
/// assert!(!chordal::is_chordal(&c4));
/// ```
pub fn is_chordal(g: &Graph) -> bool {
    perfect_elimination_ordering(g).is_some()
}

/// Returns `true` if `v` is a *simplicial* vertex of `g`, i.e. its
/// neighborhood is a clique.  Every chordal graph has a simplicial vertex
/// (used by Property 1 of the paper).
pub fn is_simplicial(g: &Graph, v: VertexId) -> bool {
    let nbrs: Vec<VertexId> = g.neighbors(v).collect();
    g.is_clique(&nbrs)
}

/// Finds a simplicial vertex of `g`, if any.
pub fn find_simplicial_vertex(g: &Graph) -> Option<VertexId> {
    g.vertices().find(|&v| is_simplicial(g, v))
}

/// Computes the clique number `ω(G)` of a **chordal** graph in linear
/// time: it is the size of the largest clique the Blair–Peyton sweep
/// discovers (equivalently `1 + max_v |later neighbors of v|` over a
/// perfect elimination ordering).
///
/// Returns `None` if `g` is not chordal (use [`crate::cliques`] for general
/// graphs).
pub fn chordal_clique_number(g: &Graph) -> Option<usize> {
    let forest = mcs_clique_forest(g);
    forest
        .chordal
        .then(|| forest.cliques.iter().map(Vec::len).max().unwrap_or(0))
}

/// Enumerates the maximal cliques of a **chordal** graph, in `O(V + E)`.
///
/// The cliques fall out of the Blair–Peyton MCS sweep directly: a new
/// clique starts exactly when a vertex's visited-neighbor count stops
/// growing, so no subset checks between candidate cliques are needed.  A
/// chordal graph on `n` vertices has at most `n` maximal cliques.
///
/// Returns `None` if `g` is not chordal.
pub fn chordal_maximal_cliques(g: &Graph) -> Option<Vec<BTreeSet<VertexId>>> {
    let forest = mcs_clique_forest(g);
    forest.chordal.then(|| {
        forest
            .cliques
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect()
    })
}

/// Returns one maximum clique of a **chordal** graph — a witness for the
/// `ω(G)` value reported by [`chordal_clique_number`], usable as an
/// independently checkable certificate (every pair must be adjacent and the
/// size must equal the claimed clique number).
///
/// The witness is in ascending vertex order.  Returns `None` if `g` is not
/// chordal.
pub fn chordal_max_clique(g: &Graph) -> Option<Vec<VertexId>> {
    let forest = mcs_clique_forest(g);
    forest.chordal.then(|| {
        let mut witness = forest
            .cliques
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap_or_default();
        witness.sort_unstable();
        witness
    })
}

/// Optimally colors a **chordal** graph with `ω(G)` colors by coloring the
/// vertices in reverse perfect elimination order, greedily.
///
/// Returns `None` if `g` is not chordal.
pub fn chordal_coloring(g: &Graph) -> Option<Coloring> {
    let order = perfect_elimination_ordering(g)?;
    let mut coloring = Coloring::new(g.capacity());
    // Epoch-stamped used-color scratch shared across the sweep: same
    // first-fit choice (hence byte-identical colorings) as the former
    // per-vertex `BTreeSet`, without the per-vertex allocation.
    let mut scratch = crate::coloring::ColorScratch::new();
    for &v in order.iter().rev() {
        scratch.begin();
        for u in g.neighbors(v) {
            if let Some(c) = coloring.color_of(u) {
                scratch.mark(c);
            }
        }
        coloring.assign(v, scratch.first_free());
    }
    Some(coloring)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::with_edges(
            n,
            (0..n).map(|i| (VertexId::new(i), VertexId::new((i + 1) % n))),
        )
    }

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i.into(), j.into());
            }
        }
        g
    }

    #[test]
    fn empty_and_single_vertex_are_chordal() {
        assert!(is_chordal(&Graph::new(0)));
        assert!(is_chordal(&Graph::new(1)));
        assert_eq!(chordal_clique_number(&Graph::new(0)), Some(0));
        assert_eq!(chordal_clique_number(&Graph::new(1)), Some(1));
    }

    #[test]
    fn trees_and_cliques_are_chordal() {
        let path = Graph::with_edges(4, (1..4).map(|i| (VertexId::new(i - 1), VertexId::new(i))));
        assert!(is_chordal(&path));
        assert!(is_chordal(&complete(5)));
    }

    #[test]
    fn cycles_of_length_at_least_4_are_not_chordal() {
        assert!(is_chordal(&cycle(3)));
        assert!(!is_chordal(&cycle(4)));
        assert!(!is_chordal(&cycle(5)));
        assert!(!is_chordal(&cycle(6)));
    }

    #[test]
    fn chorded_cycle_is_chordal() {
        let mut g = cycle(5);
        g.add_edge(0.into(), 2.into());
        g.add_edge(0.into(), 3.into());
        assert!(is_chordal(&g));
    }

    #[test]
    fn clique_number_of_clique() {
        assert_eq!(chordal_clique_number(&complete(4)), Some(4));
    }

    #[test]
    fn clique_number_of_triangle_with_pendant() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        assert_eq!(chordal_clique_number(&g), Some(3));
    }

    #[test]
    fn non_chordal_reports_none() {
        assert_eq!(chordal_clique_number(&cycle(4)), None);
        assert!(chordal_coloring(&cycle(4)).is_none());
        assert!(chordal_maximal_cliques(&cycle(4)).is_none());
    }

    #[test]
    fn chordal_coloring_is_optimal_on_interval_like_graph() {
        // Interval graph: [0,2], [1,3], [2,4], [5,6] -> clique number 2... build explicitly:
        let mut g = Graph::new(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let coloring = chordal_coloring(&g).unwrap();
        assert!(coloring.is_proper(&g));
        assert_eq!(coloring.num_colors(), 2);
        assert_eq!(chordal_clique_number(&g), Some(2));
    }

    #[test]
    fn chordal_coloring_uses_omega_colors_on_clique() {
        let g = complete(5);
        let c = chordal_coloring(&g).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 5);
    }

    #[test]
    fn simplicial_vertices() {
        let mut g = complete(3);
        let v = g.add_vertex();
        g.add_edge(v, 0.into());
        assert!(is_simplicial(&g, v));
        assert!(is_simplicial(&g, 1.into()));
        assert!(find_simplicial_vertex(&cycle(4)).is_none());
    }

    #[test]
    fn maximal_cliques_of_two_triangles_sharing_an_edge() {
        // Triangles {0,1,2} and {1,2,3}.
        let g = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        );
        let cliques = chordal_maximal_cliques(&g).unwrap();
        assert_eq!(cliques.len(), 2);
        assert!(cliques.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn peo_check_rejects_wrong_order_on_path() {
        // For the path 0-1-2, the order [1, 0, 2] is not a PEO because 1's
        // later neighbors {0, 2} are not adjacent.
        let g = Graph::with_edges(3, [(0.into(), 1.into()), (1.into(), 2.into())]);
        assert!(!is_perfect_elimination_ordering(
            &g,
            &[1.into(), 0.into(), 2.into()]
        ));
        assert!(is_perfect_elimination_ordering(
            &g,
            &[0.into(), 2.into(), 1.into()]
        ));
    }

    #[test]
    fn peo_check_rejects_non_permutations() {
        let g = Graph::new(2);
        assert!(!is_perfect_elimination_ordering(&g, &[0.into()]));
        assert!(!is_perfect_elimination_ordering(&g, &[0.into(), 0.into()]));
    }
}
