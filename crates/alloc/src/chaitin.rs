//! The Chaitin–Briggs allocation loop: build, color/coalesce, spill, repeat.
//!
//! This is the "classical approach" of §1: spilling, coalescing and
//! coloring live in a single framework.  Each round builds the interference
//! graph of the current function, runs the iterated-register-coalescing
//! engine of [`coalesce_core::irc`] (simplify / conservative coalesce /
//! freeze / potential spill / select with optimistic coloring), and — if
//! some vertices ended up as *actual spills* — rewrites the function with
//! spill code and starts over.  The loop ends when a round completes with
//! no actual spill or when the configured round limit is reached.

use crate::assignment::RegisterAssignment;
use coalesce_core::affinity::AffinityGraph;
use coalesce_core::irc;
use coalesce_ir::function::{Function, Var};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill;

/// Configuration of the Chaitin–Briggs loop.
#[derive(Debug, Clone, Copy)]
pub struct ChaitinConfig {
    /// Number of registers.
    pub registers: usize,
    /// Maximum number of build/color/spill rounds before giving up (any
    /// vertex still uncolored after the last round stays spilled).
    pub max_rounds: usize,
}

impl ChaitinConfig {
    /// Creates a configuration with the default round limit (8).
    pub fn new(registers: usize) -> Self {
        ChaitinConfig {
            registers,
            max_rounds: 8,
        }
    }
}

/// Outcome of running [`chaitin_allocate`].
#[derive(Debug, Clone)]
pub struct ChaitinOutcome {
    /// The rewritten function (spill code inserted).
    pub function: Function,
    /// The final register assignment.
    pub assignment: RegisterAssignment,
    /// Number of build/color rounds executed.
    pub rounds: usize,
    /// Variables spilled across all rounds (original, pre-rewrite names of
    /// each round).
    pub spilled_values: Vec<Var>,
    /// Reload temporaries inserted across all rounds.
    pub reloads_inserted: usize,
    /// Moves coalesced by the conservative coalescing of the final round.
    pub moves_coalesced: usize,
}

/// Runs the Chaitin–Briggs allocation loop on a copy of `f`.
///
/// The input may be in SSA form or not; φ-functions are treated by the
/// interference builder as affinities and by the allocator as ordinary
/// definitions, so callers that want the out-of-SSA copies to be visible to
/// the allocator should lower the function first (see
/// [`crate::ssa_based`]).
pub fn chaitin_allocate(f: &Function, config: ChaitinConfig) -> ChaitinOutcome {
    let k = config.registers;
    let mut function = f.clone();
    let mut spilled_values: Vec<Var> = Vec::new();
    let mut reloads_inserted = 0usize;
    let mut rounds = 0usize;
    let mut last_result: Option<irc::IrcResult> = None;

    while rounds < config.max_rounds.max(1) {
        rounds += 1;
        let liveness = Liveness::compute(&function);
        let ig = InterferenceGraph::build(&function, &liveness);
        let ag = AffinityGraph::from_interference(&ig);
        let result = irc::allocate(&ag, k);
        let spills: Vec<Var> = result.spilled.iter().map(|v| Var::new(v.index())).collect();
        if spills.is_empty() || rounds == config.max_rounds.max(1) {
            last_result = Some(result);
            break;
        }
        // Insert spill code for every actual spill and rebuild.
        let mut spill_result = spill::SpillResult::default();
        for victim in &spills {
            spill::spill_everywhere(&mut function, *victim, &mut spill_result);
        }
        reloads_inserted += spill_result.reloads;
        spilled_values.extend(spills);
        last_result = Some(result);
    }

    let result = last_result.expect("at least one round ran");
    let mut assignment = RegisterAssignment::new();
    for i in 0..function.num_vars() {
        let var = Var::new(i);
        let vertex = coalesce_graph::VertexId::new(i);
        match result.color_of(vertex) {
            Some(c) => assignment.assign(var, c),
            None => assignment.spill(var),
        }
    }
    // Anything spilled in earlier rounds no longer exists as a register
    // candidate in the final function (its uses were rewritten to reload
    // temporaries), but the variable index is still valid: mark it spilled
    // if the final round did not give it a color.
    for &v in &spilled_values {
        if assignment.register_of(v).is_none() {
            assignment.spill(v);
        }
    }

    ChaitinOutcome {
        assignment,
        rounds,
        spilled_values,
        reloads_inserted,
        moves_coalesced: result.stats.coalesced,
        function,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalesce_ir::function::FunctionBuilder;

    fn diamond_with_copies() -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let entry = b.entry_block();
        let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
        let x = b.def(entry, "x");
        let c = b.def(entry, "c");
        b.branch(entry, c, t, e);
        let y = b.copy(t, "y", x);
        b.jump(t, join);
        let z = b.copy(e, "z", x);
        b.jump(e, join);
        let w = b.phi(join, "w", &[(t, y), (e, z)]);
        b.ret(join, &[w]);
        b.finish()
    }

    #[test]
    fn allocates_a_small_function_without_spills() {
        let f = diamond_with_copies();
        let outcome = chaitin_allocate(&f, ChaitinConfig::new(3));
        assert_eq!(outcome.rounds, 1);
        assert!(outcome.spilled_values.is_empty());
        assert!(outcome.assignment.is_valid(&outcome.function, 3));
    }

    #[test]
    fn coalesces_the_phi_related_copies_when_registers_allow() {
        let f = diamond_with_copies();
        let outcome = chaitin_allocate(&f, ChaitinConfig::new(4));
        // y, z and w are φ-related; the conservative coalescer should merge
        // at least some of those moves.
        assert!(outcome.moves_coalesced >= 1);
        let costs = outcome.assignment.move_costs(&outcome.function);
        assert!(costs.eliminated_moves >= 1);
    }

    #[test]
    fn spills_under_extreme_pressure_and_stays_valid() {
        // Eight values all live at once, two registers: spilling is
        // unavoidable, the result must still be a valid assignment of the
        // rewritten function.
        let mut b = FunctionBuilder::new("pressure");
        let entry = b.entry_block();
        let vars: Vec<Var> = (0..8).map(|i| b.def(entry, format!("v{i}"))).collect();
        for pair in vars.chunks(2) {
            b.effect(entry, pair);
        }
        b.ret(entry, &[]);
        let f = b.finish();

        let outcome = chaitin_allocate(&f, ChaitinConfig::new(2));
        assert!(!outcome.spilled_values.is_empty());
        assert!(outcome.rounds >= 2);
        assert!(outcome.assignment.is_valid(&outcome.function, 2));
        assert!(outcome.reloads_inserted > 0);
    }

    #[test]
    fn round_limit_is_respected() {
        let mut b = FunctionBuilder::new("tight");
        let entry = b.entry_block();
        let vars: Vec<Var> = (0..6).map(|i| b.def(entry, format!("v{i}"))).collect();
        let sum = b.op(entry, "sum", &vars);
        b.ret(entry, &[sum]);
        let f = b.finish();
        // With one register and a six-operand instruction, the allocator can
        // never fully succeed; it must still stop at the round limit.
        let outcome = chaitin_allocate(
            &f,
            ChaitinConfig {
                registers: 1,
                max_rounds: 3,
            },
        );
        assert!(outcome.rounds <= 3);
    }

    #[test]
    fn zero_round_config_is_clamped_to_one() {
        let f = diamond_with_copies();
        let outcome = chaitin_allocate(
            &f,
            ChaitinConfig {
                registers: 3,
                max_rounds: 0,
            },
        );
        assert_eq!(outcome.rounds, 1);
    }
}
