//! An iterated-register-coalescing (IRC) style allocator.
//!
//! The paper frames every coalescing problem inside Chaitin-like register
//! allocators (George & Appel's *iterated register coalescing* being the
//! canonical one).  This module provides a compact version of that
//! framework operating directly on an [`AffinityGraph`]:
//!
//! * **simplify** — remove non-move-related vertices of degree < `k`;
//! * **coalesce** — conservatively merge move-related vertices using the
//!   Briggs/George tests;
//! * **freeze** — when neither applies, give up the moves of a low-degree
//!   move-related vertex so it becomes simplifiable;
//! * **potential spill** — when everything has degree ≥ `k`, push a vertex
//!   chosen by a spill metric and hope it still gets a color;
//! * **select** — pop the stack and assign colors; vertices that get no
//!   color become **actual spills**.
//!
//! The allocator returns the coloring, the coalescing it performed and the
//! set of actual spills, which is the "resulting spills" metric used by the
//! challenge-style experiment (E8).
//!
//! # Worklists
//!
//! As in George and Appel's formulation, the phases run off worklists
//! rather than rescans of the whole graph:
//!
//! * every class representative keeps the list of its incident move
//!   indices and a count of its *active* moves — not frozen, between two
//!   distinct classes, neither end removed — so "move related" is
//!   `count > 0`.  A move that stops being active (frozen, coalesced, or
//!   an end removed) never becomes active again and is dropped for good;
//! * the simplify worklist holds the live vertices of degree < `k` with no
//!   active move, the freeze worklist those of degree < `k` with one.  Only
//!   the vertices an event touched are re-filed: the removed vertex's
//!   neighbors and the other ends of its moves, the merged vertex and the
//!   absorbed vertex's old neighbors, the other ends of frozen moves;
//! * the coalesce phase walks the surviving moves in ascending index
//!   order, dropping inactive ones as it goes.
//!
//! Every choice keeps the tie-break of the plain scan formulation
//! (`tests/graph_toolkit.rs` keeps that formulation as the reference):
//! simplify and freeze take the *smallest* qualifying vertex index (both
//! worklists are min-heaps over indices), coalesce takes the first move in
//! index order that passes Briggs or George in either direction and
//! freezes a constrained move only when the walk reaches it, and potential
//! spill takes the maximum `(degree, index)`.  Those choices fix which
//! classes form, the select order and hence the colors, so the E8/E13/E14
//! report rows and the Chaitin–Briggs spill sequence depend on them.
//!
//! Cost per step, with `d` the degree of the vertices involved: a simplify
//! or potential-spill removal pays the graph update plus O(d log n) to
//! re-file the neighbors and the other ends of its moves; a freeze pays
//! for the vertex's moves; a merge pays the row union plus both move
//! lists.  A coalesce phase re-tests the surviving moves up to the first
//! merge, O(d) each; a potential spill scans the live vertices, O(n).
//! Select reuses one stamp array, never longer than `min(k, d + 1)`.

use crate::affinity::{AffinityGraph, Coalescing, CoalescingStats};
use crate::conservative::{briggs_test, george_test};
use coalesce_graph::coloring::ColorScratch;
use coalesce_graph::{Coloring, Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of running the IRC-style allocator.
#[derive(Debug, Clone)]
pub struct IrcResult {
    /// Colors assigned to the representatives of each coalesced class (and
    /// through them to every original vertex; use [`IrcResult::color_of`]).
    pub coloring: Coloring,
    /// The coalescing performed by the conservative coalesce phase.
    pub coalescing: Coalescing,
    /// Original vertices whose class had to be spilled.
    pub spilled: Vec<VertexId>,
    /// Statistics of the coalescing against the instance affinities.
    pub stats: CoalescingStats,
}

impl IrcResult {
    /// Color of an original vertex: the color of its class representative.
    /// `None` if the class was spilled.
    pub fn color_of(&self, v: VertexId) -> Option<usize> {
        let rep = self.coalescing.class_of_immutable(v);
        self.coloring.color_of(rep)
    }

    /// Number of actual spills.
    pub fn num_spills(&self) -> usize {
        self.spilled.len()
    }
}

/// A vertex worklist that yields its smallest member.  Membership is
/// checked lazily: a vertex is queued at most once, and a queued vertex
/// that no longer qualifies is dropped when it reaches the top.
struct Worklist {
    heap: BinaryHeap<Reverse<u32>>,
    queued: Vec<bool>,
}

impl Worklist {
    fn new(n: usize) -> Self {
        Worklist {
            heap: BinaryHeap::new(),
            queued: vec![false; n],
        }
    }

    fn push(&mut self, v: VertexId) {
        if !self.queued[v.index()] {
            self.queued[v.index()] = true;
            self.heap.push(Reverse(v.index() as u32));
        }
    }

    /// The smallest queued vertex that satisfies `member` (left queued).
    fn first(&mut self, member: impl Fn(VertexId) -> bool) -> Option<VertexId> {
        while let Some(&Reverse(i)) = self.heap.peek() {
            let v = VertexId::new(i as usize);
            if member(v) {
                return Some(v);
            }
            self.heap.pop();
            self.queued[v.index()] = false;
        }
        None
    }
}

/// The simplify/coalesce/freeze/spill state of one allocation.
struct Irc {
    k: usize,
    coalescing: Coalescing,
    /// Residual merged graph: simplified and spilled vertices are removed,
    /// so degrees are those of the remaining graph.
    work: Graph,
    /// Original endpoints of each move.
    ends: Vec<(VertexId, VertexId)>,
    /// Moves that are no longer active: frozen, coalesced, or with an end
    /// removed.  None of these ever becomes active again.
    retired: Vec<bool>,
    /// Move indices incident to each class representative (may hold
    /// retired moves until the list is next pruned).
    moves_of: Vec<Vec<u32>>,
    /// Active moves per class representative.
    count: Vec<u32>,
    /// Surviving move indices in ascending order, for the coalesce walk.
    candidates: Vec<u32>,
    simplify: Worklist,
    freeze: Worklist,
    scratch: Vec<VertexId>,
}

impl Irc {
    fn new(ag: &AffinityGraph, k: usize) -> Self {
        let n = ag.graph.capacity();
        let mut irc = Irc {
            k,
            coalescing: Coalescing::identity(&ag.graph),
            work: ag.graph.clone(),
            ends: ag.affinities.iter().map(|a| (a.a, a.b)).collect(),
            retired: vec![false; ag.affinities.len()],
            moves_of: vec![Vec::new(); n],
            count: vec![0; n],
            candidates: Vec::with_capacity(ag.affinities.len()),
            simplify: Worklist::new(n),
            freeze: Worklist::new(n),
            scratch: Vec::new(),
        };
        for (m, &(a, b)) in irc.ends.iter().enumerate() {
            if a == b {
                irc.retired[m] = true;
                continue;
            }
            for end in [a, b] {
                irc.moves_of[end.index()].push(m as u32);
                irc.count[end.index()] += 1;
            }
            irc.candidates.push(m as u32);
        }
        for v in 0..irc.work.capacity() {
            irc.refile(VertexId::new(v));
        }
        irc
    }

    /// Puts `v` on the worklist its degree and moves call for.
    fn refile(&mut self, v: VertexId) {
        if self.work.is_live(v) && self.work.degree(v) < self.k {
            if self.count[v.index()] == 0 {
                self.simplify.push(v);
            } else {
                self.freeze.push(v);
            }
        }
    }

    fn next_simplify(&mut self) -> Option<VertexId> {
        let (work, count, k) = (&self.work, &self.count, self.k);
        self.simplify
            .first(|v| work.is_live(v) && work.degree(v) < k && count[v.index()] == 0)
    }

    fn next_freeze(&mut self) -> Option<VertexId> {
        let (work, count, k) = (&self.work, &self.count, self.k);
        self.freeze
            .first(|v| work.is_live(v) && work.degree(v) < k && count[v.index()] > 0)
    }

    /// Retires every active move of the class `v`.
    fn retire_moves_of(&mut self, v: VertexId) {
        for m in std::mem::take(&mut self.moves_of[v.index()]) {
            let m = m as usize;
            if self.retired[m] {
                continue;
            }
            self.retired[m] = true;
            let (a, b) = self.ends[m];
            let ra = self.coalescing.class_of(a);
            let other = if ra == v {
                self.coalescing.class_of(b)
            } else {
                ra
            };
            self.count[other.index()] -= 1;
            self.refile(other);
        }
        self.count[v.index()] = 0;
    }

    /// Removes `v` from the residual graph (simplify or potential spill).
    fn remove(&mut self, v: VertexId) {
        let mut neighbors = std::mem::take(&mut self.scratch);
        neighbors.clear();
        neighbors.extend_from_slice(self.work.neighbor_row(v));
        self.work.remove_vertex(v);
        for &n in &neighbors {
            self.refile(n);
        }
        self.scratch = neighbors;
        self.retire_moves_of(v);
    }

    /// Coalesces the classes `ra` and `rb`; `ra` survives.
    fn merge(&mut self, ra: VertexId, rb: VertexId) {
        let mut neighbors = std::mem::take(&mut self.scratch);
        neighbors.clear();
        neighbors.extend_from_slice(self.work.neighbor_row(rb));
        self.work.merge(ra, rb);
        self.coalescing.merge(ra, rb);

        let mut moves = std::mem::take(&mut self.moves_of[ra.index()]);
        moves.append(&mut self.moves_of[rb.index()]);
        let (coalescing, retired, ends) = (&mut self.coalescing, &mut self.retired, &self.ends);
        moves.retain(|&m| {
            let m = m as usize;
            if retired[m] {
                return false;
            }
            let (a, b) = ends[m];
            if coalescing.class_of(a) == coalescing.class_of(b) {
                retired[m] = true;
                return false;
            }
            true
        });
        self.count[ra.index()] = moves.len() as u32;
        self.count[rb.index()] = 0;
        self.moves_of[ra.index()] = moves;

        self.refile(ra);
        for &n in &neighbors {
            self.refile(n);
        }
        self.scratch = neighbors;
    }

    /// One coalesce phase: walks the surviving moves in index order,
    /// freezing constrained ones, and merges the first that passes Briggs
    /// or George.  Returns `true` if a merge happened.
    fn coalesce(&mut self) -> bool {
        let mut candidates = std::mem::take(&mut self.candidates);
        let (mut kept, mut next) = (0, 0);
        let mut merged = false;
        while next < candidates.len() {
            let m = candidates[next] as usize;
            next += 1;
            if self.retired[m] {
                continue;
            }
            let (a, b) = self.ends[m];
            let (ra, rb) = (self.coalescing.class_of(a), self.coalescing.class_of(b));
            if self.work.has_edge(ra, rb) {
                // Constrained move: never coalescible; freeze it.
                self.retired[m] = true;
                self.count[ra.index()] -= 1;
                self.count[rb.index()] -= 1;
                self.refile(ra);
                self.refile(rb);
                continue;
            }
            candidates[kept] = m as u32;
            kept += 1;
            let (work, k) = (&self.work, self.k);
            if briggs_test(work, k, ra, rb)
                || george_test(work, k, ra, rb)
                || george_test(work, k, rb, ra)
            {
                self.merge(ra, rb);
                merged = true;
                break;
            }
        }
        candidates.copy_within(next.., kept);
        candidates.truncate(kept + (candidates.len() - next));
        self.candidates = candidates;
        merged
    }
}

/// Runs the IRC-style allocation with `k` registers.
pub fn allocate(ag: &AffinityGraph, k: usize) -> IrcResult {
    let mut irc = Irc::new(ag, k);
    // The select stack of class representatives.
    let mut stack: Vec<VertexId> = Vec::new();

    loop {
        // --- simplify ---
        if let Some(v) = irc.next_simplify() {
            irc.remove(v);
            stack.push(v);
            continue;
        }

        // --- coalesce (Briggs, then George, both directions) ---
        if irc.coalesce() {
            continue;
        }

        // --- freeze ---
        if let Some(v) = irc.next_freeze() {
            irc.retire_moves_of(v);
            irc.refile(v);
            continue;
        }

        // --- potential spill ---
        let work = &irc.work;
        match work.vertices().max_by_key(|&v| (work.degree(v), v.index())) {
            Some(v) => {
                irc.remove(v);
                stack.push(v);
            }
            None => break, // graph empty: done
        }
    }

    // --- select ---
    let mut coalescing = irc.coalescing;
    let full_graph = &coalescing.merged_graph;
    let mut coloring = Coloring::new(full_graph.capacity());
    let mut spilled_rep = vec![false; full_graph.capacity()];
    let mut used = ColorScratch::new();
    while let Some(v) = stack.pop() {
        used.begin();
        for n in full_graph.neighbors(v) {
            if let Some(c) = coloring.color_of(n) {
                used.mark(c);
            }
        }
        let color = used.first_free();
        if color < k {
            coloring.assign(v, color);
        } else {
            spilled_rep[v.index()] = true;
        }
    }

    // Expand spilled representatives to original vertices.
    let spilled: Vec<VertexId> = ag
        .graph
        .vertices()
        .filter(|&v| spilled_rep[coalescing.class_of(v).index()])
        .collect();

    let stats = coalescing.stats(&ag.affinities);
    IrcResult {
        coloring,
        coalescing,
        spilled,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::Affinity;
    use coalesce_graph::Graph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(v(i), v(j));
            }
        }
        g
    }

    /// Checks that the produced coloring is proper on the original graph
    /// restricted to non-spilled vertices, and that coalesced vertices get
    /// equal colors.
    fn check_allocation(ag: &AffinityGraph, k: usize, result: &IrcResult) {
        for (a, b) in ag.graph.edges() {
            if let (Some(ca), Some(cb)) = (result.color_of(a), result.color_of(b)) {
                assert_ne!(ca, cb, "interfering vertices {a} and {b} share a color");
            }
        }
        for v in ag.graph.vertices() {
            if !result.spilled.contains(&v) {
                let c = result.color_of(v).expect("non-spilled vertex has a color");
                assert!(c < k);
            }
        }
    }

    #[test]
    fn colors_a_small_colorable_graph_without_spills() {
        let g = complete(3);
        let ag = AffinityGraph::new(g, vec![]);
        let res = allocate(&ag, 3);
        assert_eq!(res.num_spills(), 0);
        check_allocation(&ag, 3, &res);
    }

    #[test]
    fn spills_when_registers_are_insufficient() {
        let g = complete(5);
        let ag = AffinityGraph::new(g, vec![]);
        let res = allocate(&ag, 3);
        assert!(res.num_spills() >= 1);
        check_allocation(&ag, 3, &res);
    }

    #[test]
    fn coalesces_safe_moves() {
        // Two parallel chains with affinities between their ends; plenty of
        // registers, so everything coalesces and nothing spills.
        let mut g = Graph::new(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(2), v(3));
        let ag = AffinityGraph::new(
            g,
            vec![Affinity::new(v(0), v(2)), Affinity::new(v(1), v(3))],
        );
        let res = allocate(&ag, 3);
        assert_eq!(res.num_spills(), 0);
        assert_eq!(res.stats.coalesced, 2);
        check_allocation(&ag, 3, &res);
        assert_eq!(res.color_of(v(0)), res.color_of(v(2)));
        assert_eq!(res.color_of(v(1)), res.color_of(v(3)));
    }

    #[test]
    fn constrained_moves_are_frozen_not_coalesced() {
        let g = Graph::with_edges(2, [(v(0), v(1))]);
        let ag = AffinityGraph {
            graph: g,
            affinities: vec![Affinity::new(v(0), v(1))],
        };
        let res = allocate(&ag, 2);
        assert_eq!(res.stats.coalesced, 0);
        check_allocation(&ag, 2, &res);
    }

    #[test]
    fn allocation_handles_the_empty_graph() {
        let ag = AffinityGraph::new(Graph::new(0), vec![]);
        let res = allocate(&ag, 4);
        assert_eq!(res.num_spills(), 0);
        assert_eq!(res.stats.total, 0);
    }

    #[test]
    fn coalescing_does_not_cause_extra_spills_on_greedy_colorable_inputs() {
        // A ladder graph (greedy-3-colorable) with rung affinities.
        let n = 6;
        let mut g = Graph::new(2 * n);
        for i in 0..n {
            g.add_edge(v(i), v(n + i));
            if i + 1 < n {
                g.add_edge(v(i), v(i + 1));
                g.add_edge(v(n + i), v(n + i + 1));
            }
        }
        let affs = (0..n - 1)
            .map(|i| Affinity::new(v(i), v(n + i + 1)))
            .collect();
        let ag = AffinityGraph::new(g, affs);
        let res = allocate(&ag, 4);
        assert_eq!(res.num_spills(), 0);
        check_allocation(&ag, 4, &res);
    }
}
