//! The guard-injection pass — the heart of CARAT KOP.
//!
//! From the paper (§3.3): *"To ensure guards are inserted, it simply
//! iterates over each load/store operation and inserts a call to the guard
//! function before. Unlike CARAT CAKE, CARAT KOP does not currently
//! optimize guards — every memory access results in a guard, even if it
//! would be redundant."*
//!
//! The injected call is
//! `call void @carat_guard(ptr <addr>, i64 <size>, i32 <flags>)` where
//! `<size>` is the byte width of the accessed type and `<flags>` encodes
//! the intent (`1` read, `2` write), matching
//! [`kop_core::AccessFlags`]'s ABI.

use kop_core::AccessFlags;
use kop_ir::{Function, Inst, Module, Type, Value};

use crate::pass::PassStats;

/// The guard symbol every protected module imports. The policy module
/// privately exports it and the loader links them (paper §3.1–§3.2).
pub const GUARD_SYMBOL: &str = "carat_guard";

/// The guard-injection pass.
///
/// ```
/// use kop_compiler::GuardInjectionPass;
///
/// let mut m = kop_ir::parse_module(r#"
/// module "m"
/// define i64 @read(ptr %p) {
/// entry:
///   %v = load i64, ptr %p
///   ret i64 %v
/// }
/// "#).unwrap();
/// let stats = GuardInjectionPass.run(&mut m);
/// assert_eq!(stats.get("guards_injected"), 1);
/// assert_eq!(m.call_count("carat_guard"), 1);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct GuardInjectionPass;

impl GuardInjectionPass {
    /// Guard every load and store of `module`; reports `guards_injected`
    /// and `functions`.
    pub fn run(&self, module: &mut Module) -> PassStats {
        let mut stats = PassStats::new();
        let mut injected_any = false;
        for f in &mut module.functions {
            let n = inject_guards_in_function(f);
            stats.bump("guards_injected", n);
            injected_any |= n > 0;
        }
        stats.bump("functions", module.functions.len() as u64);
        if injected_any {
            module.declare_extern(kop_ir::ExternDecl {
                name: GUARD_SYMBOL.to_string(),
                params: vec![Type::Ptr, Type::I64, Type::I32],
                ret_ty: Type::Void,
            });
        }
        stats
    }
}

/// Inject a guard before every load/store in `f`; returns how many.
fn inject_guards_in_function(f: &mut Function) -> u64 {
    let mut injected = 0u64;
    for bid in f.block_ids().collect::<Vec<_>>() {
        // Walk a snapshot of the block's instruction list; rebuild with
        // guards interleaved.
        let old = f.block(bid).insts.clone();
        let mut new_list = Vec::with_capacity(old.len() * 2);
        for iid in old {
            let (ptr, size, flags) = match f.inst(iid) {
                Inst::Load { ty, ptr } => (ptr.clone(), ty.size_of(), AccessFlags::READ),
                Inst::Store { ty, ptr, .. } => (ptr.clone(), ty.size_of(), AccessFlags::WRITE),
                _ => {
                    new_list.push(iid);
                    continue;
                }
            };
            let guard = f.alloc_inst(Inst::Call {
                callee: GUARD_SYMBOL.to_string(),
                ret_ty: Type::Void,
                args: vec![
                    ptr,
                    Value::ConstInt(Type::I64, size),
                    Value::ConstInt(Type::I32, flags.raw() as u64),
                ],
            });
            new_list.push(guard);
            new_list.push(iid);
            injected += 1;
        }
        f.block_mut(bid).insts = new_list;
    }
    injected
}

/// The strict layout check the attestation records: every load/store is
/// *immediately* preceded by a matching guard call (same pointer operand,
/// correct size and flags). This holds for unoptimized CARAT KOP output;
/// optimized modules (hoisted/deduplicated guards) legitimately fail it
/// while still passing the dataflow verifier.
pub(crate) fn strict_guard_layout(module: &Module) -> bool {
    for f in &module.functions {
        for bid in f.block_ids() {
            let insts = &f.block(bid).insts;
            for (pos, &iid) in insts.iter().enumerate() {
                let (ptr, size, flags) = match f.inst(iid) {
                    Inst::Load { ty, ptr } => (ptr, ty.size_of(), AccessFlags::READ),
                    Inst::Store { ty, ptr, .. } => (ptr, ty.size_of(), AccessFlags::WRITE),
                    _ => continue,
                };
                if pos == 0 {
                    return false;
                }
                let prev = f.inst(insts[pos - 1]);
                let Inst::Call { callee, args, .. } = prev else {
                    return false;
                };
                if callee != GUARD_SYMBOL || args.len() != 3 {
                    return false;
                }
                let ok = &args[0] == ptr
                    && args[1] == Value::ConstInt(Type::I64, size)
                    && args[2] == Value::ConstInt(Type::I32, flags.raw() as u64);
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_analysis::verify_guard_coverage;
    use kop_ir::{parse_module, print_module, verify_module};

    const DRIVERISH: &str = r#"
module "mini-driver"

global @stats : { i64, i64 } = zero

define void @tx(ptr %ring, i64 %idx, i64 %addr) {
entry:
  %slot = gep { i64, i32, i32 }, ptr %ring, i64 %idx
  store i64 %addr, ptr %slot
  %len.p = gep { i64, i32, i32 }, ptr %ring, i64 %idx, i32 1
  store i32 128, ptr %len.p
  %count.p = gep { i64, i64 }, ptr @stats, i64 0, i32 0
  %count = load i64, ptr %count.p
  %count.next = add i64 %count, 1
  store i64 %count.next, ptr %count.p
  ret void
}
"#;

    #[test]
    fn injects_one_guard_per_access() {
        let mut m = parse_module(DRIVERISH).unwrap();
        let before = m.memory_access_count();
        assert_eq!(before, 4); // 3 stores + 1 load
        let stats = GuardInjectionPass.run(&mut m);
        assert_eq!(stats.get("guards_injected"), 4);
        assert_eq!(m.call_count(GUARD_SYMBOL), 4);
        // Loads/stores themselves are untouched.
        assert_eq!(m.memory_access_count(), before);
        // The import is declared exactly once.
        assert_eq!(m.imported_symbols(), vec![GUARD_SYMBOL]);
        // And the transformed module still verifies.
        verify_module(&m).expect("transformed module verifies");
    }

    #[test]
    fn guards_carry_correct_size_and_flags() {
        let mut m = parse_module(DRIVERISH).unwrap();
        GuardInjectionPass.run(&mut m);
        let f = m.function("tx").unwrap();
        let text = print_module(&m);
        // i32 store guarded with size 4, write flag 2.
        assert!(
            text.contains("call void @carat_guard(ptr %len.p, i64 4, i32 2)"),
            "{text}"
        );
        // i64 load guarded with size 8, read flag 1.
        assert!(
            text.contains("call void @carat_guard(ptr %count.p, i64 8, i32 1)"),
            "{text}"
        );
        assert_eq!(f.call_count(GUARD_SYMBOL), 4);
    }

    #[test]
    fn validate_accepts_transformed_rejects_raw() {
        let mut m = parse_module(DRIVERISH).unwrap();
        assert!(
            !verify_guard_coverage(&m).is_clean(),
            "unguarded module must fail"
        );
        assert!(!strict_guard_layout(&m));
        GuardInjectionPass.run(&mut m);
        assert!(
            verify_guard_coverage(&m).is_clean(),
            "guarded module must pass"
        );
        assert!(strict_guard_layout(&m));
    }

    #[test]
    fn validate_rejects_tampered_guard_args() {
        let mut m = parse_module(DRIVERISH).unwrap();
        GuardInjectionPass.run(&mut m);
        // Tamper: change one guard's size argument.
        let f = m.function_mut("tx").unwrap();
        let all = f.placed_insts();
        for (_, iid) in all {
            if let Inst::Call { callee, args, .. } = f.inst_mut(iid) {
                if callee == GUARD_SYMBOL {
                    args[1] = Value::ConstInt(Type::I64, 1);
                    break;
                }
            }
        }
        let report = verify_guard_coverage(&m);
        assert!(!report.is_clean());
        assert!(!strict_guard_layout(&m));
    }

    #[test]
    fn idempotent_module_without_memory_ops() {
        let src = r#"
module "pure"
define i64 @add(i64 %a, i64 %b) {
entry:
  %s = add i64 %a, %b
  ret i64 %s
}
"#;
        let mut m = parse_module(src).unwrap();
        let stats = GuardInjectionPass.run(&mut m);
        assert_eq!(stats.get("guards_injected"), 0);
        // No guard import added when nothing was guarded.
        assert!(m.imported_symbols().is_empty());
        assert!(verify_guard_coverage(&m).is_clean()); // vacuously true
    }

    #[test]
    fn double_transformation_guards_guardless_module_only_once_each() {
        // Running the pass twice would double-guard; CARAT KOP's driver
        // runs it once. Verify the count doubles so the driver-level
        // protection against re-running is meaningful.
        let mut m = parse_module(DRIVERISH).unwrap();
        GuardInjectionPass.run(&mut m);
        let first = m.call_count(GUARD_SYMBOL);
        GuardInjectionPass.run(&mut m);
        assert_eq!(m.call_count(GUARD_SYMBOL), first * 2);
    }

    #[test]
    fn guarded_loop_verifies_and_roundtrips() {
        let src = r#"
module "loop"
define i64 @sum(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %acc.next = add i64 %acc, %v
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 %acc
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        verify_module(&m).expect("verifies");
        let text = print_module(&m);
        let m2 = parse_module(&text).unwrap();
        assert_eq!(print_module(&m2), text);
        assert!(verify_guard_coverage(&m2).is_clean());
        assert!(strict_guard_layout(&m2));
    }
}
