//! Property tests tying the guard passes to the coverage verifier.
//!
//! * **Acceptance**: for random programs, every `GuardInjectionPass`
//!   output — unoptimized, deduplicated, hoisted, or both — must verify
//!   clean. The verifier may be conservative, but never so conservative
//!   that it rejects the compiler's own work.
//! * **Mutation**: after deduplication every remaining guard is
//!   load-bearing, so deleting any single one (or shrinking its size
//!   operand) must flip the verdict to rejected. This is the soundness
//!   direction: the verifier cannot be fooled by a stripped guard.

use proptest::prelude::*;

use kop_analysis::verify_guard_coverage;
use kop_compiler::{
    GuardInjectionPass, ObligationRecorder, RangeCoalescing, RedundantGuardElim, GUARD_SYMBOL,
};
use kop_ir::{parse_module, verify_module, Inst, Module, Type, Value};

/// One random memory access: which pointer, what type, load or store.
#[derive(Clone, Debug)]
struct Access {
    target: u8, // 0 = arg %a, 1 = arg %b, 2 = global @g, 3 = alloca slot
    ty: Type,
    is_store: bool,
}

fn arb_access() -> impl Strategy<Value = Access> {
    (0u8..4, 0u8..4, any::<bool>()).prop_map(|(target, tysel, is_store)| Access {
        target,
        ty: match tysel {
            0 => Type::I8,
            1 => Type::I16,
            2 => Type::I32,
            _ => Type::I64,
        },
        is_store,
    })
}

/// The accesses as KIR lines, in order.
fn access_lines(accesses: &[Access]) -> String {
    let mut out = String::new();
    for (k, acc) in accesses.iter().enumerate() {
        let ptr = ["%a", "%b", "@g", "%slot"][acc.target as usize];
        let ty = &acc.ty;
        if acc.is_store {
            out += &format!("  store {ty} 1, ptr {ptr}\n");
        } else {
            out += &format!("  %v{k} = load {ty}, ptr {ptr}\n");
        }
    }
    out
}

/// Straight-line program: a single block issuing the accesses in order.
fn build_straightline(accesses: &[Access]) -> Module {
    parse_module(&format!(
        "module \"slp\"
global @g : i64 = 0
define void @run(ptr %a, ptr %b) {{
entry:
  %slot = alloca i64, 1
{}  ret void
}}
",
        access_lines(accesses)
    ))
    .expect("generated program parses")
}

/// Loop program: the same accesses inside a counted loop body, so the
/// hoisting pass has loop-invariant guards to move.
fn build_loop(accesses: &[Access], n: u64) -> Module {
    parse_module(&format!(
        "module \"loopp\"
global @g : i64 = 0
define void @run(ptr %a, ptr %b) {{
entry:
  %slot = alloca i64, 1
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, {n}
  condbr i1 %c, %body, %exit
body:
{}  %i2 = add i64 %i, 1
  br %head
exit:
  ret void
}}
",
        access_lines(accesses)
    ))
    .expect("generated program parses")
}

/// All placed guard call sites in a module.
fn guard_sites(m: &Module) -> Vec<(usize, kop_ir::BlockId, kop_ir::InstId)> {
    let mut sites = Vec::new();
    for (fi, f) in m.functions.iter().enumerate() {
        for (bid, iid) in f.placed_insts() {
            if let Inst::Call { callee, .. } = f.inst(iid) {
                if callee == GUARD_SYMBOL {
                    sites.push((fi, bid, iid));
                }
            }
        }
    }
    sites
}

/// Delete one guard call from its block (the "stripped module" attack).
fn delete_guard(m: &mut Module, site: (usize, kop_ir::BlockId, kop_ir::InstId)) {
    let (fi, bid, iid) = site;
    m.functions[fi].block_mut(bid).insts.retain(|&x| x != iid);
}

/// Shrink one guard's size operand by a byte (the "lying guard" attack).
/// Returns false when the size is already 1 (cannot shrink further).
fn shrink_guard_size(m: &mut Module, site: (usize, kop_ir::BlockId, kop_ir::InstId)) -> bool {
    let (fi, _, iid) = site;
    if let Inst::Call { args, .. } = m.functions[fi].inst_mut(iid) {
        if let Value::ConstInt(ty, size) = &args[1] {
            if *size > 1 {
                args[1] = Value::ConstInt(ty.clone(), *size - 1);
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance: every pipeline configuration over random programs
    /// (straight-line and loops) produces a provably covered module.
    #[test]
    fn injected_output_always_verifies(
        accesses in proptest::collection::vec(arb_access(), 1..16),
        n in 1u64..8,
    ) {
        for module in [build_straightline(&accesses), build_loop(&accesses, n)] {
            verify_module(&module).expect("generated program verifies");
            prop_assert!(
                !verify_guard_coverage(&module).is_clean(),
                "raw module must be rejected"
            );
            // Unoptimized.
            let mut m = module.clone();
            GuardInjectionPass.run(&mut m);
            prop_assert!(verify_guard_coverage(&m).is_clean(), "unoptimized");
            // Deduplicated.
            RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
            prop_assert!(verify_guard_coverage(&m).is_clean(), "deduplicated");
            // Range coalescing on top (a no-op for these shapes, but
            // it must preserve coverage either way).
            RangeCoalescing.run_with(&mut m, &mut ObligationRecorder::new());
            prop_assert!(verify_guard_coverage(&m).is_clean(), "coalesced");
            verify_module(&m).expect("optimized module verifies");
        }
    }

    /// Mutation: after dedup every surviving guard is load-bearing, so
    /// stripping any single one must be caught.
    #[test]
    fn deleting_any_guard_is_caught(
        accesses in proptest::collection::vec(arb_access(), 1..12),
    ) {
        let mut m = build_straightline(&accesses);
        GuardInjectionPass.run(&mut m);
        RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        prop_assert!(verify_guard_coverage(&m).is_clean());
        for site in guard_sites(&m) {
            let mut mutant = m.clone();
            delete_guard(&mut mutant, site);
            let report = verify_guard_coverage(&mutant);
            prop_assert!(
                !report.is_clean(),
                "deleting guard {:?} went unnoticed",
                site
            );
        }
    }

    /// Mutation: shrinking any guard's size operand must be caught — a
    /// guard that checks fewer bytes than the access touches is a hole.
    #[test]
    fn shrinking_any_guard_size_is_caught(
        accesses in proptest::collection::vec(arb_access(), 1..12),
    ) {
        let mut m = build_straightline(&accesses);
        GuardInjectionPass.run(&mut m);
        RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        for site in guard_sites(&m) {
            let mut mutant = m.clone();
            if shrink_guard_size(&mut mutant, site) {
                let report = verify_guard_coverage(&mutant);
                prop_assert!(
                    !report.is_clean(),
                    "shrunk guard {:?} went unnoticed",
                    site
                );
            }
        }
    }
}
