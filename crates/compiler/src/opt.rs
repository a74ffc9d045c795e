//! Guard optimizations — the analysis tier CARAT KOP deliberately omits.
//!
//! The paper (§2, §3.3) explains that CARAT CAKE amortizes guards through
//! extensive compiler analysis, while CARAT KOP skips all of it for
//! engineering simplicity and still sees <1% overhead. These passes
//! implement that analysis tier so the ablation benchmarks can quantify
//! what the paper left on the table — and, unlike a conventional
//! optimizer, every transform here must *justify itself*: each removed
//! or coalesced guard is recorded as a machine-checkable obligation (via
//! [`crate::obligations::ObligationRecorder`]) that the independent
//! translation validator ([`kop_analysis::validate_module`]) re-derives
//! from scratch before the module can be signed or loaded.
//!
//! * [`RedundantGuardElim`] — cross-block elimination over the
//!   AvailableGuards dataflow ([`kop_analysis::available`]): a guard is
//!   removed when a single earlier guard instruction establishes a
//!   covering fact on **every** path (source agreement ⇒ dominance),
//!   with no intervening non-guard call. When the dominating guard names
//!   the same pointer with enough bytes but narrower intent, the pass
//!   *widens* its flags (read + write → rw) instead of keeping both.
//! * [`RangeCoalescing`] — replaces the per-iteration element guards of
//!   a counted loop (`for (i = 0; i <u n; i++)` walking `gep base, i`)
//!   with one preheader guard over the whole interval
//!   `[base, base + n·stride)`, computed as `mul i64 n, stride`. One
//!   guard executes where `n` used to.

use kop_analysis::available::{available_guards, transfer_avail};
use kop_analysis::coverage::{guard_fact, GuardFact};
use kop_analysis::plan_ranges;
use kop_ir::{Function, Inst, InstId, Module, Type, Value};

use crate::guard::GUARD_SYMBOL;
use crate::obligations::ObligationRecorder;
use crate::pass::PassStats;

/// Remove guards dominated by a covering (or widenable) earlier guard.
#[derive(Clone, Copy, Debug, Default)]
pub struct RedundantGuardElim;

impl RedundantGuardElim {
    /// Remove redundant guards, recording an elide obligation for each
    /// into `obligations`; reports `guards_removed` and `guards_widened`.
    pub fn run_with(&self, module: &mut Module, obligations: &mut ObligationRecorder) -> PassStats {
        let mut stats = PassStats::new();
        for f in &mut module.functions {
            let (removed, widened) = elim_in_function(f, obligations);
            stats.bump("guards_removed", removed);
            stats.bump("guards_widened", widened);
        }
        stats
    }
}

/// A guard call's key: pointer operand, size, flags.
#[cfg(test)]
fn guard_key(f: &Function, iid: InstId) -> Option<(Value, u64, u64)> {
    guard_fact(f, iid).map(|g| (g.ptr, g.size, g.flags))
}

/// The access immediately after position `idx` in `insts`, if the guard
/// fact at `idx` covers it — i.e. the access the strict-layout injector
/// paired with this guard. Used to attach the protected access to an
/// elide obligation; when the layout is non-strict the obligation is
/// simply not recorded (the validator's coverage replay still gates the
/// elision).
fn paired_access(f: &Function, insts: &[InstId], idx: usize, fact: &GuardFact) -> Option<InstId> {
    let &next = insts.get(idx + 1)?;
    let (ptr, size, flags) = match f.inst(next) {
        Inst::Load { ty, ptr } => (ptr.clone(), ty.size_of(), 1),
        Inst::Store { ty, ptr, .. } => (ptr.clone(), ty.size_of(), 2),
        _ => return None,
    };
    fact.covers(&ptr, size, flags).then_some(next)
}

/// Rewrite the flags operand of the guard call `iid` to `flags`.
fn widen_guard_flags(f: &mut Function, iid: InstId, flags: u64) {
    if let Inst::Call { args, .. } = f.inst_mut(iid) {
        args[2] = Value::ConstInt(Type::I32, flags);
    }
}

fn elim_in_function(f: &mut Function, obligations: &mut ObligationRecorder) -> (u64, u64) {
    let fname = f.name.clone();
    let mut removed = 0u64;
    let mut widened = 0u64;
    // Widening changes facts other blocks' solved entry states were
    // computed from, so iterate to a fixpoint. Stale facts within one
    // round are strictly *weaker* than reality (widening only adds flag
    // bits, and a fact's source is removed only when a covering fact
    // survives), so decisions made on them remain sound.
    loop {
        let states = available_guards(f);
        let mut changed = false;
        for bid in f.block_ids().collect::<Vec<_>>() {
            let Some(entry) = states.entry_of(bid) else {
                continue; // unreachable block: nothing executes there
            };
            let mut state = entry.clone();
            let old = f.block(bid).insts.clone();
            let mut keep = Vec::with_capacity(old.len());
            for (idx, &iid) in old.iter().enumerate() {
                let Some(fact) = guard_fact(f, iid) else {
                    transfer_avail(f, iid, &mut state);
                    keep.push(iid);
                    continue;
                };
                // Covered outright by a single dominating guard?
                if let Some(src) = state
                    .iter()
                    .find(|(have, _)| have.covers(&fact.ptr, fact.size, fact.flags))
                    .map(|(_, &src)| src)
                {
                    if let Some(access) = paired_access(f, &old, idx, &fact) {
                        obligations.record_elide(&fname, src, access, fact.size, fact.flags);
                    }
                    obligations.redirect(&fname, iid, src);
                    removed += 1;
                    changed = true;
                    continue;
                }
                // Same pointer, enough bytes, narrower intent: widen the
                // dominating guard's flags and drop this one.
                if let Some((have, src)) = state
                    .iter()
                    .find(|(have, _)| have.ptr == fact.ptr && have.size >= fact.size)
                    .map(|(have, &src)| (have.clone(), src))
                {
                    let merged = have.flags | fact.flags;
                    widen_guard_flags(f, src, merged);
                    state.remove(&have);
                    state.insert(
                        GuardFact {
                            ptr: have.ptr,
                            size: have.size,
                            flags: merged,
                        },
                        src,
                    );
                    if let Some(access) = paired_access(f, &old, idx, &fact) {
                        obligations.record_elide(&fname, src, access, fact.size, fact.flags);
                    }
                    obligations.redirect(&fname, iid, src);
                    removed += 1;
                    widened += 1;
                    changed = true;
                    continue;
                }
                state.insert(fact, iid);
                keep.push(iid);
            }
            if keep.len() != old.len() {
                f.block_mut(bid).insts = keep;
            }
        }
        if !changed {
            break;
        }
    }
    (removed, widened)
}

/// Coalesce per-iteration element guards into one range guard.
#[derive(Clone, Copy, Debug, Default)]
pub struct RangeCoalescing;

impl RangeCoalescing {
    /// Coalesce counted-loop element guards, recording a range
    /// obligation for each into `obligations`; reports
    /// `guards_range_coalesced` and `range_guards_inserted`.
    pub fn run_with(&self, module: &mut Module, obligations: &mut ObligationRecorder) -> PassStats {
        let mut stats = PassStats::new();
        for f in &mut module.functions {
            let (coalesced, inserted) = coalesce_in_function(f, obligations);
            stats.bump("guards_range_coalesced", coalesced);
            stats.bump("range_guards_inserted", inserted);
        }
        stats
    }
}

fn coalesce_in_function(f: &mut Function, obligations: &mut ObligationRecorder) -> (u64, u64) {
    let fname = f.name.clone();
    let plans = plan_ranges(f);
    let mut coalesced = 0u64;
    let mut inserted = 0u64;
    for (pi, plan) in plans.into_iter().enumerate() {
        // Only coalesce guards whose paired access is itself a
        // per-iteration element access the range interval covers — the
        // obligation must name the access, and the validator re-checks
        // it. With strict injected layout this is every planned guard.
        let mut replaced: Vec<(InstId, InstId)> = Vec::new(); // (guard, access)
        let mut flags = 0u64;
        for &g in &plan.guards {
            let Some(fact) = guard_fact(f, g) else {
                continue;
            };
            let Some((bid, idx)) = position_of(f, g) else {
                continue;
            };
            let Some(access) = paired_access(f, &f.block(bid).insts, idx, &fact) else {
                continue;
            };
            replaced.push((g, access));
            flags |= fact.flags;
        }
        if replaced.is_empty() {
            continue;
        }
        // `[base, base + n·stride)` — one guard in the preheader, whose
        // byte count the validator re-derives as `mul trip_count, stride`.
        let len = f.alloc_named_inst(
            Inst::Bin {
                op: kop_ir::BinOp::Mul,
                ty: Type::I64,
                lhs: plan.loop_.bound.clone(),
                rhs: Value::ConstInt(Type::I64, plan.stride),
            },
            format!("rg.len{pi}"),
        );
        let guard = f.alloc_inst(Inst::Call {
            callee: GUARD_SYMBOL.to_string(),
            ret_ty: Type::Void,
            args: vec![
                plan.base.clone(),
                Value::Inst(len),
                Value::ConstInt(Type::I32, flags),
            ],
        });
        f.push_inst(plan.loop_.preheader, len);
        f.push_inst(plan.loop_.preheader, guard);
        for &(g, _) in &replaced {
            if let Some((bid, _)) = position_of(f, g) {
                f.block_mut(bid).insts.retain(|&i| i != g);
            }
        }
        obligations.record_range(
            &fname,
            guard,
            f.block(plan.loop_.header).name.clone(),
            plan.stride,
            flags,
            replaced.iter().map(|&(_, a)| a).collect(),
        );
        coalesced += replaced.len() as u64;
        inserted += 1;
    }
    (coalesced, inserted)
}

fn position_of(f: &Function, iid: InstId) -> Option<(kop_ir::BlockId, usize)> {
    for bid in f.block_ids() {
        if let Some(idx) = f.block(bid).insts.iter().position(|&i| i == iid) {
            return Some((bid, idx));
        }
    }
    None
}

/// Convenience: total static guard count of a module.
pub fn guard_count(module: &Module) -> usize {
    module.call_count(GUARD_SYMBOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardInjectionPass;
    use kop_analysis::{validate_module, verify_guard_coverage, ObligationLedger};
    use kop_ir::{parse_module, verify_module};

    #[test]
    fn elim_removes_same_block_duplicates() {
        // Two i64 loads through the same pointer in one block: the second
        // guard is redundant.
        let src = r#"
module "dup"
define i64 @f(ptr %p) {
entry:
  %a = load i64, ptr %p
  %b = load i64, ptr %p
  %s = add i64 %a, %b
  ret i64 %s
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 2);
        let stats = RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(stats.get("guards_removed"), 1);
        assert_eq!(guard_count(&m), 1);
        verify_module(&m).expect("still verifies");
        assert!(verify_guard_coverage(&m).is_clean());
    }

    #[test]
    fn elim_works_across_blocks_with_dominating_guard() {
        // The entry guard dominates both arms and the join: all three
        // later guards fall to the one in entry.
        let src = r#"
module "xblk"
define i64 @f(ptr %p, i1 %c) {
entry:
  %a = load i64, ptr %p
  condbr i1 %c, %t, %e
t:
  %x = load i64, ptr %p
  br %join
e:
  %y = load i64, ptr %p
  br %join
join:
  %m = phi i64 [ %x, %t ], [ %y, %e ]
  %z = load i64, ptr %p
  %s = add i64 %m, %z
  ret i64 %s
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 4);
        let mut rec = ObligationRecorder::new();
        let stats = RedundantGuardElim.run_with(&mut m, &mut rec);
        assert_eq!(stats.get("guards_removed"), 3);
        assert_eq!(guard_count(&m), 1);
        verify_module(&m).expect("still verifies");
        let ledger = rec.finalize(&m);
        assert_eq!(ledger.len(), 3, "one obligation per cross-block elision");
        assert!(validate_module(&m, &ledger).is_clean());
    }

    #[test]
    fn elim_does_not_cross_a_join_without_dominance() {
        // Guards in both arms establish the same fact but via different
        // instructions: neither dominates the join, so the join's guard
        // must survive (plain coverage would accept its removal; the
        // obligation discipline must not).
        let src = r#"
module "join"
define i64 @f(ptr %p, i1 %c) {
entry:
  condbr i1 %c, %t, %e
t:
  %x = load i64, ptr %p
  br %join
e:
  %y = load i64, ptr %p
  br %join
join:
  %m = phi i64 [ %x, %t ], [ %y, %e ]
  %z = load i64, ptr %p
  ret i64 %z
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let stats = RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(stats.get("guards_removed"), 0);
        assert_eq!(guard_count(&m), 3);
    }

    #[test]
    fn elim_keys_on_ssa_def_identity_not_value_shape() {
        // Regression for the post-phi alias-by-value hazard: the guarded
        // pointer is recomputed every iteration under the *same* SSA
        // name-shape (`gep %buf, %i`), so a fact from a previous
        // iteration must never justify eliding the current iteration's
        // guard. Facts key on the SSA definition, and entering the
        // defining block kills them.
        let src = r#"
module "alias"
define i64 @sum(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 0
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 1);
        let stats = RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(
            stats.get("guards_removed"),
            0,
            "per-iteration guard must survive elim"
        );
    }

    #[test]
    fn elim_respects_smaller_earlier_guard() {
        // An earlier 4-byte guard does not cover a later 8-byte access —
        // and must not be "widened" into covering it either (widening
        // extends intent bits, never byte counts).
        let src = r#"
module "sz"
define i64 @f(ptr %p) {
entry:
  %a = load i32, ptr %p
  %b = load i64, ptr %p
  %a64 = zext i32 %a to i64
  %s = add i64 %a64, %b
  ret i64 %s
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let stats = RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(stats.get("guards_removed"), 0);
        assert_eq!(guard_count(&m), 2);
    }

    #[test]
    fn elim_widens_read_guard_to_cover_write() {
        // load then store through the same pointer: the write guard is
        // folded into the read guard by widening its flags to rw.
        let src = r#"
module "rw"
define void @f(ptr %p) {
entry:
  %a = load i64, ptr %p
  store i64 %a, ptr %p
  ret void
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 2);
        let mut rec = ObligationRecorder::new();
        let stats = RedundantGuardElim.run_with(&mut m, &mut rec);
        assert_eq!(stats.get("guards_removed"), 1);
        assert_eq!(stats.get("guards_widened"), 1);
        assert_eq!(guard_count(&m), 1);
        // The surviving guard now grants rw.
        let f = m.function("f").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        let g = f.block(entry).insts[0];
        assert_eq!(guard_key(f, g).unwrap().2, 3, "flags widened to rw");
        verify_module(&m).expect("still verifies");
        assert!(verify_guard_coverage(&m).is_clean());
        let ledger = rec.finalize(&m);
        assert!(validate_module(&m, &ledger).is_clean());
    }

    #[test]
    fn elim_clobbered_by_intervening_call() {
        let src = r#"
module "clob"
declare void @ext()
define i64 @f(ptr %p) {
entry:
  %a = load i64, ptr %p
  call void @ext()
  %b = load i64, ptr %p
  %s = add i64 %a, %b
  ret i64 %s
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let stats = RedundantGuardElim.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(stats.get("guards_removed"), 0);
    }

    #[test]
    fn range_coalesces_counted_loop_walk() {
        let src = r#"
module "walk"
define i64 @sum(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 0
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 1);
        let mut rec = ObligationRecorder::new();
        let stats = RangeCoalescing.run_with(&mut m, &mut rec);
        assert_eq!(stats.get("guards_range_coalesced"), 1);
        assert_eq!(stats.get("range_guards_inserted"), 1);
        assert_eq!(
            guard_count(&m),
            1,
            "per-iteration guard replaced, not added"
        );
        verify_module(&m).expect("still verifies");

        // The guard moved to the preheader with a computed byte count.
        let f = m.function("sum").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        let body = f.block_by_name("body").unwrap();
        assert!(f
            .block(body)
            .insts
            .iter()
            .all(|&i| guard_key(f, i).is_none()));
        let pre_guard = f
            .block(entry)
            .insts
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Call { callee, .. } if callee == GUARD_SYMBOL));
        assert!(pre_guard, "range guard sits in the preheader");

        // Without the ledger the loop body is unproven; with it, the
        // independent validator accepts.
        let ledger = rec.finalize(&m);
        assert_eq!(ledger.len(), 1);
        assert!(!validate_module(&m, &ObligationLedger::empty()).is_clean());
        assert!(validate_module(&m, &ledger).is_clean());
    }

    #[test]
    fn range_leaves_non_counted_loops_alone() {
        // Bound checked with `ne` — not a recognizable counted loop.
        let src = r#"
module "ne"
define i64 @sum(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ne i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 0
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let stats = RangeCoalescing.run_with(&mut m, &mut ObligationRecorder::new());
        assert_eq!(stats.get("guards_range_coalesced"), 0);
        assert_eq!(guard_count(&m), 1);
    }

    #[test]
    fn combined_pipeline_reduces_static_guards() {
        // A loop mixing an element walk (range-coalesced) with repeated
        // access to a loop-invariant global (elided + widened after the
        // walk guard no longer splits the block).
        let src = r#"
module "combo"
global @g : i64 = 0
define i64 @f(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %a = load i64, ptr @g
  %ab = add i64 %a, %v
  store i64 %ab, ptr @g
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 0
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        assert_eq!(guard_count(&m), 3);
        let mut rec = ObligationRecorder::new();
        RangeCoalescing.run_with(&mut m, &mut rec);
        RedundantGuardElim.run_with(&mut m, &mut rec);
        let ledger = rec.finalize(&m);
        // Element guard → range guard (net 0); the @g write guard folds
        // into the @g read guard by widening.
        assert_eq!(guard_count(&m), 2);
        verify_module(&m).expect("verifies");
        assert!(
            validate_module(&m, &ledger).is_clean(),
            "validator accepts the combined pipeline's ledger"
        );
    }
}
