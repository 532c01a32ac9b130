//! Clique trees of chordal graphs.
//!
//! A chordal graph is the intersection graph of a family of subtrees of a
//! tree (Golumbic, Thm 4.8 — the characterisation invoked in the proofs of
//! Theorem 1 and Theorem 5 of the paper).  The canonical such tree is the
//! *clique tree*: its nodes are the maximal cliques of the graph and, for
//! every vertex `v`, the set of nodes whose clique contains `v` induces a
//! connected subtree (the *induced-subtree* or *junction* property).
//!
//! Theorem 5's polynomial incremental conservative coalescing algorithm
//! works on a path of this tree; [`CliqueTree::path_between`] provides it.

use crate::chordal;
use crate::graph::{Graph, VertexId};
use std::collections::BTreeSet;

/// A clique tree of a chordal graph.
///
/// Nodes are indexed `0..num_nodes()`; each node carries a maximal clique of
/// the underlying graph.  For a disconnected chordal graph the components'
/// clique trees are stitched together with (empty-intersection) edges so the
/// structure is always a single tree, which keeps path queries total; the
/// induced-subtree property per vertex is unaffected because a vertex only
/// appears in cliques of its own component.
#[derive(Debug, Clone)]
pub struct CliqueTree {
    cliques: Vec<BTreeSet<VertexId>>,
    adjacency: Vec<Vec<usize>>,
    /// For each vertex index, the (ascending) tree nodes whose clique
    /// contains it — the subtree `T_v`, precomputed so the per-vertex
    /// queries on the Theorem-5 hot path don't scan every clique.
    containing: Vec<Vec<usize>>,
    capacity: usize,
}

impl CliqueTree {
    /// Builds a clique tree of the live part of `g` in `O(V + E)`: the
    /// maximal cliques *and* the tree edges both come out of a single
    /// Blair–Peyton MCS sweep ([`chordal`]'s clique-forest machinery), so
    /// no pairwise clique intersections or spanning-tree search is needed.
    ///
    /// Returns `None` if `g` is not chordal.
    pub fn build(g: &Graph) -> Option<Self> {
        let forest = chordal::mcs_clique_forest(g);
        if !forest.chordal {
            return None;
        }
        let cliques: Vec<BTreeSet<VertexId>> = forest
            .cliques
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect();
        let mut adjacency = vec![Vec::new(); cliques.len()];
        for &(a, b) in &forest.tree_edges {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let mut containing = vec![Vec::new(); g.capacity()];
        for (i, clique) in cliques.iter().enumerate() {
            for &v in clique {
                containing[v.index()].push(i);
            }
        }
        Some(CliqueTree {
            cliques,
            adjacency,
            containing,
            capacity: g.capacity(),
        })
    }

    /// Number of tree nodes (maximal cliques).
    pub fn num_nodes(&self) -> usize {
        self.cliques.len()
    }

    /// The maximal clique carried by node `i`.
    pub fn clique(&self, i: usize) -> &BTreeSet<VertexId> {
        &self.cliques[i]
    }

    /// All cliques, indexed by node.
    pub fn cliques(&self) -> &[BTreeSet<VertexId>] {
        &self.cliques
    }

    /// Tree neighbors of node `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Clique number of the underlying graph: size of the largest clique
    /// (0 for the empty graph).
    pub fn clique_number(&self) -> usize {
        self.cliques.iter().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Nodes whose clique contains vertex `v` (the subtree `T_v`), in
    /// ascending node order.  `O(1)`: served from the precomputed
    /// vertex→node index.
    pub fn nodes_containing(&self, v: VertexId) -> &[usize] {
        self.containing
            .get(v.index())
            .map_or(&[], |nodes| nodes.as_slice())
    }

    /// Some node whose clique contains `v`, if any.  `O(1)`.
    pub fn any_node_containing(&self, v: VertexId) -> Option<usize> {
        self.nodes_containing(v).first().copied()
    }

    /// The unique tree path from node `from` to node `to` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn path_between(&self, from: usize, to: usize) -> Vec<usize> {
        assert!(from < self.num_nodes() && to < self.num_nodes());
        if from == to {
            return vec![from];
        }
        // BFS parent pointers.
        let mut parent = vec![usize::MAX; self.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        parent[from] = from;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if n == to {
                break;
            }
            for &m in &self.adjacency[n] {
                if parent[m] == usize::MAX {
                    parent[m] = n;
                    queue.push_back(m);
                }
            }
        }
        assert!(parent[to] != usize::MAX, "clique tree must be connected");
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Checks the induced-subtree (junction) property: for every vertex, the
    /// nodes containing it form a connected subtree.  Mostly useful in tests
    /// and debug assertions.
    pub fn has_junction_property(&self) -> bool {
        for v in 0..self.capacity {
            let v = VertexId::new(v);
            let nodes = self.nodes_containing(v);
            if nodes.len() <= 1 {
                continue;
            }
            // BFS restricted to `nodes`.
            let node_set: BTreeSet<usize> = nodes.iter().copied().collect();
            let mut seen = BTreeSet::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(nodes[0]);
            seen.insert(nodes[0]);
            while let Some(n) = queue.pop_front() {
                for &m in &self.adjacency[n] {
                    if node_set.contains(&m) && seen.insert(m) {
                        queue.push_back(m);
                    }
                }
            }
            if seen.len() != nodes.len() {
                return false;
            }
        }
        true
    }

    /// Restriction of every vertex's subtree to a tree path: for the given
    /// path (a sequence of node indices), returns for each vertex that
    /// appears on the path the contiguous interval `[first, last]` of path
    /// positions whose cliques contain it.
    ///
    /// By the junction property the occurrences of a vertex along a tree
    /// path are contiguous, so the interval fully describes them.
    pub fn intervals_on_path(&self, path: &[usize]) -> Vec<(VertexId, usize, usize)> {
        use std::collections::BTreeMap;
        let mut first_last: BTreeMap<VertexId, (usize, usize)> = BTreeMap::new();
        for (pos, &node) in path.iter().enumerate() {
            for &v in &self.cliques[node] {
                first_last
                    .entry(v)
                    .and_modify(|fl| fl.1 = pos)
                    .or_insert((pos, pos));
            }
        }
        first_last
            .into_iter()
            .map(|(v, (a, b))| (v, a, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> Graph {
        // Triangles {0,1,2} and {1,2,3} sharing edge 1-2.
        Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (0.into(), 2.into()),
                (1.into(), 2.into()),
                (1.into(), 3.into()),
                (2.into(), 3.into()),
            ],
        )
    }

    #[test]
    fn build_rejects_non_chordal_graphs() {
        let c4 = Graph::with_edges(
            4,
            [
                (0.into(), 1.into()),
                (1.into(), 2.into()),
                (2.into(), 3.into()),
                (3.into(), 0.into()),
            ],
        );
        assert!(CliqueTree::build(&c4).is_none());
    }

    #[test]
    fn clique_tree_of_two_triangles() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.clique_number(), 3);
        assert!(t.has_junction_property());
        assert_eq!(t.neighbors(0).len(), 1);
    }

    #[test]
    fn junction_property_on_longer_interval_graph() {
        // Interval graph of intervals [0,1],[1,2],[2,3],[3,4],[1,3].
        let mut g = Graph::new(5);
        let intervals = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)];
        for i in 0..5 {
            for j in i + 1..5 {
                let (a1, b1) = intervals[i];
                let (a2, b2) = intervals[j];
                if a1.max(a2) <= b1.min(b2) {
                    g.add_edge(i.into(), j.into());
                }
            }
        }
        let t = CliqueTree::build(&g).unwrap();
        assert!(t.has_junction_property());
    }

    #[test]
    fn path_between_endpoints() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        let p = t.path_between(0, 1);
        assert_eq!(p, vec![0, 1]);
        assert_eq!(t.path_between(1, 1), vec![1]);
    }

    #[test]
    fn disconnected_graph_still_yields_single_tree() {
        // Two disjoint edges.
        let g = Graph::with_edges(4, [(0.into(), 1.into()), (2.into(), 3.into())]);
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 2);
        // A path must exist between any two nodes.
        let p = t.path_between(0, 1);
        assert_eq!(p.len(), 2);
        assert!(t.has_junction_property());
    }

    #[test]
    fn nodes_containing_and_intervals() {
        let g = two_triangles();
        let t = CliqueTree::build(&g).unwrap();
        let shared = t.nodes_containing(1.into());
        assert_eq!(shared.len(), 2);
        let only0 = t.nodes_containing(0.into());
        assert_eq!(only0.len(), 1);
        let path = t.path_between(0, 1);
        let intervals = t.intervals_on_path(&path);
        // Vertex 1 and 2 span both positions; vertices 0 and 3 span one.
        let find = |v: usize| {
            intervals
                .iter()
                .find(|(x, _, _)| *x == VertexId::new(v))
                .copied()
                .unwrap()
        };
        assert_eq!((find(1).1, find(1).2), (0, 1));
        assert_eq!((find(2).1, find(2).2), (0, 1));
        assert_eq!(find(0).1, find(0).2);
        assert_eq!(find(3).1, find(3).2);
    }

    #[test]
    fn clique_tree_of_clique_is_single_node() {
        let mut g = Graph::new(4);
        for i in 0..4usize {
            for j in i + 1..4usize {
                g.add_edge(i.into(), j.into());
            }
        }
        let t = CliqueTree::build(&g).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.clique_number(), 4);
    }
}
