//! `module_ssa` and `module_chaitin`: a seeded module of generated
//! functions (the E16 mix of shape profiles and pressures) allocated
//! function after function on one thread (a closed loop, like a compiler
//! backend), through the SSA-based allocator or the Chaitin–Briggs loop.
//!
//! The untraced run times each library call and audits every allocation
//! outside the timed calls.  The traced run also replays each call's stage
//! sequence through the same public functions, one span per stage, and
//! requires the replay to agree with the library call.

use crate::checks::audit_allocation;
use crate::stats::{
    calibration_ms, host_factor, median, ms, percentile, top_percent_share, Calibration,
};
use crate::tracer::{nanos, Tracer};
use crate::Report;
use coalesce_alloc::assignment::MoveCosts;
use coalesce_alloc::biased::biased_select;
use coalesce_alloc::{
    chaitin_allocate, ssa_allocate, ChaitinConfig, CoalescingStrategy, RegisterAssignment,
};
use coalesce_core::affinity::{Affinity, AffinityGraph, Coalescing};
use coalesce_core::conservative::{conservative_coalesce, ConservativeRule};
use coalesce_core::irc;
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_graph::{chordal, greedy, VertexId};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::spill::{self, SpillerKind};
use coalesce_ir::{out_of_ssa, ssa, Function, Var};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    Ssa,
    Chaitin,
}

/// Functions allocated per pass.  `module_ssa` takes four times the E16
/// module size: its pass time moves with the seeded mix by about 8%
/// (interquartile range over eight seeds at 1000 functions), which a
/// larger module averages out; `module_chaitin` keeps the E16 size, since
/// one pass already takes about 20 s.
fn functions(alloc: Allocator) -> usize {
    match alloc {
        Allocator::Ssa => 4000,
        Allocator::Chaitin => 1000,
    }
}
const SETUP_REPEATS: usize = 3;
const WARMUP_FUNCTIONS: usize = 50;

/// `module_chaitin` allocates this one module for every `--seed`, in an
/// order the seed permutes.  Its cost sits in a few large functions (IRC is
/// cubic), so the pass time of a seeded module moves with the seed by
/// about a third (13.6 s to 25.3 s over seven seeds on one machine) — more
/// than any regression bound could tolerate.
const CHAITIN_MODULE_SEED: u64 = crate::DEFAULT_SEED;

const SSA_LAYERS: &[&str] = &[
    "ir.liveness_ms",
    "ir.liveness_iterations",
    "ir.interference_ms",
    "ir.interference_edges",
    "ir.spill_ms",
    "ir.spill_victims",
    "ir.spill_blocks_rebuilt",
    "ir.out_of_ssa_ms",
    "graph.chordal_ms",
    "graph.mcs_bucket_ops",
    "graph.color_order_ms",
    "core.affinity_ms",
    "core.coalesce_ms",
    "core.merges_accepted",
    "core.merge_accept_ratio",
    "alloc.select_ms",
    "alloc.untraced_ms",
    "verify.check_ms",
    "verify.violations",
    "bench.trace_overhead_frac",
    "fail_frac",
    "moves_left_weight",
    "spilled_values",
    "latency_p99_ms",
    "latency_samples",
    "raw.throughput_per_s",
    "raw.latency_p50_ms",
    "raw.setup_s",
    "bench.calibration_ms",
    "input.instrs_p50",
    "input.instrs_p99",
    "input.instrs_max",
    "input.slowest_1pct_time_share",
];

const CHAITIN_LAYERS: &[&str] = &[
    "ir.liveness_ms",
    "ir.liveness_iterations",
    "ir.interference_ms",
    "ir.interference_edges",
    "ir.spill_ms",
    "ir.spill_victims",
    "core.affinity_ms",
    "core.irc_ms",
    "core.irc_calls",
    "alloc.rounds_mean",
    "alloc.untraced_ms",
    "verify.check_ms",
    "verify.violations",
    "bench.trace_overhead_frac",
    "fail_frac",
    "moves_left_weight",
    "spilled_values",
    "latency_p99_ms",
    "latency_samples",
    "raw.throughput_per_s",
    "raw.latency_p50_ms",
    "raw.setup_s",
    "bench.calibration_ms",
    "input.instrs_p50",
    "input.instrs_p99",
    "input.instrs_max",
    "input.slowest_1pct_time_share",
];

struct Input {
    f: Function,
    k: usize,
}

/// What the library call and its staged replay must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    spilled: Vec<Var>,
    reloads: usize,
    costs: MoveCosts,
}

struct Allocation {
    function: Function,
    assignment: RegisterAssignment,
    spilled: Vec<Var>,
    reloads: usize,
    rounds: usize,
}

impl Allocation {
    fn summary(&self) -> Summary {
        Summary {
            spilled: self.spilled.clone(),
            reloads: self.reloads,
            costs: self.assignment.move_costs(&self.function),
        }
    }
}

/// The module's functions with their register counts,
/// `k = max(Maxlive / 2, 3)`.
fn build(alloc: Allocator, seed: u64) -> Vec<Input> {
    let module_seed = match alloc {
        Allocator::Ssa => seed,
        Allocator::Chaitin => CHAITIN_MODULE_SEED,
    };
    let mut inputs: Vec<Input> = module_specs(
        &ModuleParams {
            functions: functions(alloc),
        },
        module_seed,
    )
    .iter()
    .map(|spec| {
        let f = spec.generate();
        let k = (Liveness::compute(&f).maxlive_precise(&f) / 2).max(3);
        Input { f, k }
    })
    .collect();
    if alloc == Allocator::Chaitin {
        // Fisher–Yates with a splitmix64 stream.
        let mut state = seed;
        for i in (1..inputs.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            inputs.swap(i, (z % (i as u64 + 1)) as usize);
        }
    }
    inputs
}

/// The single library call being measured.
fn call(alloc: Allocator, input: &Input) -> Allocation {
    match alloc {
        Allocator::Ssa => {
            let o = ssa_allocate(&input.f, input.k, CoalescingStrategy::BriggsGeorge);
            Allocation {
                function: o.function,
                assignment: o.assignment,
                spilled: o.spilled_values,
                reloads: o.reloads_inserted,
                rounds: 1,
            }
        }
        Allocator::Chaitin => {
            let o = chaitin_allocate(&input.f, ChaitinConfig::new(input.k));
            Allocation {
                function: o.function,
                assignment: o.assignment,
                spilled: o.spilled_values,
                reloads: o.reloads_inserted,
                rounds: o.rounds,
            }
        }
    }
}

/// `ssa_allocate_with_spiller(f, k, BriggsGeorge, PressureGreedy)`, stage
/// by stage.
fn ssa_staged(input: &Input, unit: u64, tr: &mut Tracer) -> Allocation {
    let k = input.k;
    let spiller = SpillerKind::PressureGreedy;
    let mut function = if ssa::is_ssa(&input.f) {
        input.f.clone()
    } else {
        ssa::construct_ssa(&input.f)
    };
    let live = tr.stage("ir.liveness", unit, || Liveness::compute(&function));
    let ig = tr.stage("ir.interference", unit, || {
        InterferenceGraph::build(&function, &live)
    });
    tr.count("bench.interference_edges", ig.graph.num_edges() as u64);
    tr.stage("graph.chordal", unit, || chordal::is_chordal(&ig.graph));
    let first = tr.stage("ir.spill", unit, || spiller.run(&mut function, k));
    tr.stage("ir.out_of_ssa", unit, || {
        out_of_ssa::destruct_ssa(&mut function)
    });
    let correction = tr.stage("ir.spill", unit, || spiller.run(&mut function, k));
    let live = tr.stage("ir.liveness", unit, || {
        let live = Liveness::compute(&function);
        live.maxlive_precise(&function);
        live
    });
    let ig = tr.stage("ir.interference", unit, || {
        InterferenceGraph::build(&function, &live)
    });
    tr.count("bench.interference_edges", ig.graph.num_edges() as u64);
    let ag = tr.stage("core.affinity", unit, || {
        AffinityGraph::from_interference(&ig)
    });
    let mut coalescing = tr.stage("core.coalesce", unit, || {
        conservative_coalesce(&ag, k, ConservativeRule::BriggsGeorge).coalescing
    });
    let residual = residual_affinities(&ag, &mut coalescing);
    let order = tr.stage("graph.color_order", unit, || {
        greedy::smallest_last_order(&residual.graph)
    });
    let select = tr.stage("alloc.select", unit, || biased_select(&residual, k, &order));

    let mut assignment = RegisterAssignment::new();
    for i in 0..function.num_vars() {
        let vertex = VertexId::new(i);
        if !ag.graph.is_live(vertex) {
            continue;
        }
        match select.coloring.color_of(coalescing.class_of(vertex)) {
            Some(c) => assignment.assign(Var::new(i), c),
            None => assignment.spill(Var::new(i)),
        }
    }
    let mut spilled = first.spilled;
    spilled.extend(correction.spilled);
    Allocation {
        function,
        assignment,
        spilled,
        reloads: first.reloads + correction.reloads,
        rounds: 1,
    }
}

/// The affinities left between distinct, non-interfering classes, on the
/// merged graph: what the biased select still chases.
fn residual_affinities(ag: &AffinityGraph, coalescing: &mut Coalescing) -> AffinityGraph {
    let graph = coalescing.merged_graph.clone();
    let affinities = ag
        .affinities
        .iter()
        .filter_map(|aff| {
            let (ra, rb) = (coalescing.class_of(aff.a), coalescing.class_of(aff.b));
            (ra != rb && !graph.has_edge(ra, rb)).then(|| Affinity::weighted(ra, rb, aff.weight))
        })
        .collect();
    AffinityGraph { graph, affinities }
}

/// `chaitin_allocate(f, ChaitinConfig::new(k))`, round by round.
fn chaitin_staged(input: &Input, unit: u64, tr: &mut Tracer) -> Allocation {
    let config = ChaitinConfig::new(input.k);
    let max_rounds = config.max_rounds.max(1);
    let mut function = input.f.clone();
    let mut spilled: Vec<Var> = Vec::new();
    let mut reloads = 0usize;
    let mut rounds = 0usize;
    let result = loop {
        rounds += 1;
        let live = tr.stage("ir.liveness", unit, || Liveness::compute(&function));
        let ig = tr.stage("ir.interference", unit, || {
            InterferenceGraph::build(&function, &live)
        });
        tr.count("bench.interference_edges", ig.graph.num_edges() as u64);
        let ag = tr.stage("core.affinity", unit, || {
            AffinityGraph::from_interference(&ig)
        });
        let result = tr.stage("core.irc", unit, || irc::allocate(&ag, config.registers));
        let victims: Vec<Var> = result.spilled.iter().map(|v| Var::new(v.index())).collect();
        if victims.is_empty() || rounds == max_rounds {
            break result;
        }
        tr.count("spill.victims", victims.len() as u64);
        let mut spill_result = spill::SpillResult::default();
        tr.stage("ir.spill", unit, || {
            for &victim in &victims {
                spill::spill_everywhere(&mut function, victim, &mut spill_result);
            }
        });
        reloads += spill_result.reloads;
        spilled.extend(victims);
    };
    tr.count("bench.rounds", rounds as u64);

    let mut assignment = RegisterAssignment::new();
    for i in 0..function.num_vars() {
        match result.color_of(VertexId::new(i)) {
            Some(c) => assignment.assign(Var::new(i), c),
            None => assignment.spill(Var::new(i)),
        }
    }
    for &v in &spilled {
        if assignment.register_of(v).is_none() {
            assignment.spill(v);
        }
    }
    Allocation {
        function,
        assignment,
        spilled,
        reloads,
        rounds,
    }
}

/// Replays one call stage by stage under a root span; returns the result
/// and the root span's duration in ns.
fn staged(alloc: Allocator, input: &Input, i: usize, tr: &mut Tracer) -> (Allocation, u64) {
    tr.open("alloc.function", i as u64);
    let replay = match alloc {
        Allocator::Ssa => ssa_staged(input, i as u64, tr),
        Allocator::Chaitin => chaitin_staged(input, i as u64, tr),
    };
    (replay, tr.close())
}

pub fn run(alloc: Allocator, seed: u64, seconds: f64, trace: bool) -> (Report, Option<Tracer>) {
    let mut report = Report {
        layers: match alloc {
            Allocator::Ssa => SSA_LAYERS,
            Allocator::Chaitin => CHAITIN_LAYERS,
        },
        ..Report::default()
    };

    // Set-up: generate the module, compute each k, warm up on
    // WARMUP_FUNCTIONS functions no larger than the median.
    let mut setup_s = Vec::new();
    let mut setup_kernel = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setup_kernel.push(calibration_ms());
        let t = Instant::now();
        inputs = build(alloc, seed);
        let mut sizes: Vec<usize> = inputs.iter().map(|i| i.f.num_instrs_total()).collect();
        sizes.sort_unstable();
        let median_size = sizes[sizes.len() / 2];
        for input in inputs
            .iter()
            .filter(|i| i.f.num_instrs_total() <= median_size)
            .take(WARMUP_FUNCTIONS)
        {
            std::hint::black_box(call(alloc, input));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let n = inputs.len();
    let mut tracer = trace.then(Tracer::new);
    let mut latencies = Vec::new();
    let mut per_fn = vec![Duration::ZERO; n];
    let mut pass_throughput = Vec::new();
    let mut raw_throughput = Vec::new();
    let mut scaled_latencies = Vec::new();
    let mut reference: Vec<Option<Summary>> = vec![None; n];
    let (mut lib_ns, mut replay_ns) = (0u64, 0u64);
    let (mut moves_left, mut spilled_values) = (0u64, 0u64);
    let (mut audit, mut violations) = (Duration::ZERO, 0usize);
    let mut rounds = 0usize;
    let start = Instant::now();
    let mut passes = 0usize;
    let mut kernel = Vec::new();
    loop {
        let pass_start = Instant::now();
        let mut calibration = Calibration::new();
        let mut calls = Vec::with_capacity(n);
        let mut busy = Duration::ZERO;
        for (i, input) in inputs.iter().enumerate() {
            calibration.tick();
            // The traced run replays every call stage by stage, alternating
            // which of the two runs first so neither always finds the
            // caches warm.
            let replay_first = i % 2 == 1;
            let mut replay = None;
            if replay_first {
                replay = tracer.as_mut().map(|tr| staged(alloc, input, i, tr));
            }
            let t = Instant::now();
            let out = call(alloc, input);
            let dt = t.elapsed();
            calls.push((t, dt));
            if !replay_first {
                replay = tracer.as_mut().map(|tr| staged(alloc, input, i, tr));
            }
            busy += dt;
            per_fn[i] += dt;
            latencies.push(ms(dt));
            report.attempted += 1;
            let mut ok = true;
            let summary = out.summary();

            if let Some((replay, ns)) = replay {
                lib_ns += nanos(dt);
                replay_ns += ns;
                let replayed = replay.summary();
                if replayed != summary {
                    ok = false;
                    report.fail(format!(
                        "function {i}: staged replay {replayed:?} disagrees with the library call {summary:?}"
                    ));
                }
            }

            match &reference[i] {
                None => {
                    let t = Instant::now();
                    let found = match tracer.as_mut() {
                        Some(tr) => tr.stage("verify.check", i as u64, || {
                            audit_allocation(&out.function, &out.assignment, input.k)
                        }),
                        None => audit_allocation(&out.function, &out.assignment, input.k),
                    };
                    audit += t.elapsed();
                    violations += found;
                    if found > 0 {
                        ok = false;
                        report.fail(format!("function {i}: {found} audit violations"));
                    }
                    moves_left += summary.costs.remaining_weight();
                    spilled_values += summary.spilled.len() as u64;
                    rounds += out.rounds;
                    reference[i] = Some(summary);
                }
                Some(first) if *first != summary => {
                    ok = false;
                    report.fail(format!("function {i}: allocation changed between passes"));
                }
                Some(_) => {}
            }
            report.failed += u64::from(!ok);
        }
        passes += 1;
        let mut scaled_busy_ms = 0.0;
        for &(t, dt) in &calls {
            let scaled = calibration.scale(t, ms(dt));
            scaled_busy_ms += scaled;
            scaled_latencies.push(scaled);
        }
        raw_throughput.push(n as f64 / busy.as_secs_f64());
        pass_throughput.push(n as f64 / scaled_busy_ms * 1e3);
        kernel.extend(calibration.kernel_ms());
        // Start another pass only if it should end within `seconds`.
        if start.elapsed() + pass_start.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }

    report.set("throughput_per_s", median(&pass_throughput), "1/s");
    report.set("latency_p50_ms", percentile(&scaled_latencies, 50.0), "ms");
    report.set(
        "setup_s",
        median(&setup_s) / host_factor(&setup_kernel),
        "s",
    );
    report.set("raw.throughput_per_s", median(&raw_throughput), "1/s");
    report.set("raw.latency_p50_ms", percentile(&latencies, 50.0), "ms");
    report.set("raw.setup_s", median(&setup_s), "s");
    report.set("bench.calibration_ms", median(&kernel), "ms");
    report.set("latency_p99_ms", percentile(&latencies, 99.0), "ms");
    report.set("latency_samples", latencies.len() as f64, "count");
    report.set("moves_left_weight", moves_left as f64, "weight");
    report.set("spilled_values", spilled_values as f64, "count");
    report.set("verify.check_ms", ms(audit), "ms");
    report.set("verify.violations", violations as f64, "count");

    let instrs: Vec<f64> = inputs
        .iter()
        .map(|i| i.f.num_instrs_total() as f64)
        .collect();
    report.set("input.instrs_p50", percentile(&instrs, 50.0), "count");
    report.set("input.instrs_p99", percentile(&instrs, 99.0), "count");
    report.set("input.instrs_max", percentile(&instrs, 100.0), "count");
    let per_fn_s: Vec<f64> = per_fn.iter().map(Duration::as_secs_f64).collect();
    report.set(
        "input.slowest_1pct_time_share",
        top_percent_share(&per_fn_s),
        "ratio",
    );

    if let Some(tr) = tracer.as_ref() {
        let per_pass = |x: f64| x / passes as f64;
        for (metric, span) in [
            ("ir.liveness_ms", "ir.liveness"),
            ("ir.interference_ms", "ir.interference"),
            ("ir.spill_ms", "ir.spill"),
            ("ir.out_of_ssa_ms", "ir.out_of_ssa"),
            ("graph.chordal_ms", "graph.chordal"),
            ("graph.color_order_ms", "graph.color_order"),
            ("core.affinity_ms", "core.affinity"),
            ("core.coalesce_ms", "core.coalesce"),
            ("core.irc_ms", "core.irc"),
            ("alloc.select_ms", "alloc.select"),
        ] {
            if tr.totals(span).calls > 0 {
                report.set(metric, per_pass(tr.busy_ms(span)), "ms");
            }
        }
        for (metric, counter) in [
            ("ir.liveness_iterations", "liveness.worklist_iterations"),
            ("ir.interference_edges", "bench.interference_edges"),
            ("ir.spill_victims", "spill.victims"),
            ("ir.spill_blocks_rebuilt", "spill.blocks_rebuilt"),
            ("graph.mcs_bucket_ops", "mcs.bucket_ops"),
            ("core.merges_accepted", "coalesce.merges_accepted"),
        ] {
            if report.layers.contains(&metric) {
                report.set(metric, per_pass(tr.counter(counter) as f64), "count");
            }
        }
        if alloc == Allocator::Ssa {
            let accepted = tr.counter("coalesce.merges_accepted") as f64;
            let rejected = tr.counter("coalesce.merges_rejected") as f64;
            report.set(
                "core.merge_accept_ratio",
                accepted / (accepted + rejected).max(1.0),
                "ratio",
            );
        } else {
            report.set(
                "core.irc_calls",
                per_pass(tr.totals("core.irc").calls as f64),
                "count",
            );
            report.set("alloc.rounds_mean", rounds as f64 / n as f64, "count");
        }
        let root = tr.totals("alloc.function");
        let staged_ns = root.busy_ns - root.self_ns;
        report.set(
            "alloc.untraced_ms",
            per_pass((lib_ns as f64 - staged_ns as f64) / 1e6),
            "ms",
        );
        report.set(
            "bench.trace_overhead_frac",
            replay_ns as f64 / lib_ns as f64 - 1.0,
            "ratio",
        );
    }
    (report, tracer)
}
