//! Output checks that are independent of the code under test, and the
//! self-tests that show they catch a broken output.

use coalesce_alloc::{ssa_allocate, CoalescingStrategy, RegisterAssignment};
use coalesce_gen::module::{module_specs, ModuleParams};
use coalesce_ir::interference::InterferenceGraph;
use coalesce_ir::liveness::Liveness;
use coalesce_ir::Function;
use coalesce_serve::{parse_request, Engine, EngineConfig, Response};
use coalesce_verify::{AllocCtx, VerifyCtx, VerifyLevel};
use std::time::Instant;

/// Audits a final (lowered, spilled) function and its register assignment
/// with the verifier's reference liveness: every variable has a register
/// below `k` or a spill slot, and no two interfering variables share a
/// register.  Returns the number of violations.
pub fn audit_allocation(function: &Function, assignment: &RegisterAssignment, k: usize) -> usize {
    let mut cx = VerifyCtx::at(VerifyLevel::Boundaries, "perfbench/module");
    cx.function = Some(function);
    cx.assume_ssa = false;
    cx.allocation = Some(AllocCtx { assignment, k });
    coalesce_verify::verify(&cx).len()
}

/// The engine every serve check and workload uses.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        verify: VerifyLevel::Boundaries,
        ..EngineConfig::default()
    }
}

/// A reference reply (from the serial replay) is acceptable when it is
/// `ok` and not flagged `verified: false`.
pub fn reference_ok(reply: &Response) -> bool {
    matches!(reply, Response::Ok { verified, .. } if *verified != Some(false))
}

/// A live reply passes when it is byte-identical to the acceptable serial
/// reply for the same line.
pub fn reply_ok(reply: &str, reference: &str) -> bool {
    reply == reference
}

/// Mutation self-tests of the checks above.  Returns one message per
/// mutation the checks failed to catch (or per self-test that could not
/// be set up); empty means the checker works.
pub fn self_test() -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = register_flip_is_caught() {
        problems.push(e);
    }
    if let Err(e) = reply_byte_flip_is_caught() {
        problems.push(e);
    }
    problems
}

/// Allocates module functions until one has two interfering variables in
/// registers, moves the second onto the first's register, and requires the
/// audit to count the allocation as failed.
fn register_flip_is_caught() -> Result<(), String> {
    for spec in module_specs(&ModuleParams { functions: 8 }, crate::DEFAULT_SEED) {
        let f = spec.generate();
        let out = ssa_allocate(&f, 3, CoalescingStrategy::BriggsGeorge);
        if audit_allocation(&out.function, &out.assignment, 3) != 0 {
            return Err("a correct allocation failed the audit".to_string());
        }
        let live = Liveness::compute(&out.function);
        let ig = InterferenceGraph::build(&out.function, &live);
        let pair = ig
            .graph
            .edges()
            .map(|(a, b)| (ig.var(a), ig.var(b)))
            .find(|&(a, b)| {
                let (ra, rb) = (out.assignment.register_of(a), out.assignment.register_of(b));
                ra.is_some() && rb.is_some()
            });
        let Some((a, b)) = pair else { continue };
        let mut broken = out.assignment.clone();
        let register = broken.register_of(a).expect("checked above");
        broken.assign(b, register);
        return if audit_allocation(&out.function, &broken, 3) > 0 {
            Ok(())
        } else {
            Err(format!(
                "{a:?} and {b:?} interfere and share a register, audit passed"
            ))
        };
    }
    Err("no allocation with an interfering register pair to mutate".to_string())
}

/// Serves one request, changes one byte of the reply's payload, and
/// requires the reply check to count it as failed.
fn reply_byte_flip_is_caught() -> Result<(), String> {
    let line =
        r#"{"id":1,"kind":"dimacs","text":"p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n","k":3}"#;
    let request = parse_request(line).map_err(|e| format!("self-test request: {e:?}"))?;
    let reply = Engine::new(engine_config()).execute(&request, Instant::now());
    if !reference_ok(&reply) {
        return Err(format!("self-test request was not answered ok: {reply:?}"));
    }
    let reference = reply.to_json().to_compact_string();
    // Payload fields come last, so the last digit belongs to the payload.
    let pos = reference
        .bytes()
        .rposition(|b| b.is_ascii_digit())
        .ok_or("reply has no digit to change")?;
    let mut bytes = reference.clone().into_bytes();
    bytes[pos] = if bytes[pos] == b'1' { b'2' } else { b'1' };
    let broken = String::from_utf8(bytes).expect("ASCII digit swap keeps UTF-8");
    if !reply_ok(&reference, &reference) {
        return Err("an unchanged reply failed the check".to_string());
    }
    if reply_ok(&broken, &reference) {
        return Err(format!("changed reply {broken} passed the check"));
    }
    Ok(())
}
