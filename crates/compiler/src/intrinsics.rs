//! Privileged-intrinsic guarding — the §5 extension, implemented.
//!
//! From the paper: *"As of now, CARAT KOP does not attempt to prevent
//! access to privileged instructions beyond its compiler attestation to
//! the lack of inline assembly ... Instrumentation and wrappers to these
//! builtins could be added during compilation, such that a guard is
//! injected and a different policy table could be consulted to determine
//! if a given kernel module has access to a privileged intrinsic."*
//!
//! [`IntrinsicWrapPass`] injects
//! `call void @carat_intrinsic_guard(i32 <intrinsic id>)` before every
//! call to a privileged intrinsic; the policy module's *intrinsic table*
//! (see `kop-policy::intrinsics`) is the "different policy table".

use kop_ir::{Function, Inst, Module, Type, Value};

use crate::attest::PRIVILEGED_INTRINSICS;
use crate::pass::PassStats;

/// The intrinsic-guard symbol protected modules import when built with
/// `wrap_privileged`.
pub const INTRINSIC_GUARD_SYMBOL: &str = "carat_intrinsic_guard";

/// The stable id of a privileged intrinsic (its index in
/// [`PRIVILEGED_INTRINSICS`]).
pub fn intrinsic_id(name: &str) -> Option<u32> {
    PRIVILEGED_INTRINSICS
        .iter()
        .position(|&n| n == name)
        .map(|i| i as u32)
}

/// Inject intrinsic guards before every privileged-intrinsic call.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntrinsicWrapPass;

impl IntrinsicWrapPass {
    /// Wrap every privileged-intrinsic call of `module`; reports
    /// `intrinsics_wrapped`.
    pub fn run(&self, module: &mut Module) -> PassStats {
        let mut stats = PassStats::new();
        let mut wrapped_any = false;
        for f in &mut module.functions {
            let n = wrap_in_function(f);
            stats.bump("intrinsics_wrapped", n);
            wrapped_any |= n > 0;
        }
        if wrapped_any {
            module.declare_extern(kop_ir::ExternDecl {
                name: INTRINSIC_GUARD_SYMBOL.to_string(),
                params: vec![Type::I32],
                ret_ty: Type::Void,
            });
        }
        stats
    }
}

fn wrap_in_function(f: &mut Function) -> u64 {
    let mut wrapped = 0u64;
    for bid in f.block_ids().collect::<Vec<_>>() {
        let old = f.block(bid).insts.clone();
        let mut new_list = Vec::with_capacity(old.len());
        for iid in old {
            if let Inst::Call { callee, .. } = f.inst(iid) {
                if let Some(id) = intrinsic_id(callee) {
                    let guard = f.alloc_inst(Inst::Call {
                        callee: INTRINSIC_GUARD_SYMBOL.to_string(),
                        ret_ty: Type::Void,
                        args: vec![Value::ConstInt(Type::I32, id as u64)],
                    });
                    new_list.push(guard);
                    wrapped += 1;
                }
            }
            new_list.push(iid);
        }
        f.block_mut(bid).insts = new_list;
    }
    wrapped
}

/// Validate that every privileged-intrinsic call is immediately preceded
/// by its matching intrinsic guard (the kernel-side check for wrapped
/// modules).
pub fn validate_intrinsic_wraps(module: &Module) -> bool {
    for f in &module.functions {
        for bid in f.block_ids() {
            let insts = &f.block(bid).insts;
            for (pos, &iid) in insts.iter().enumerate() {
                let Inst::Call { callee, .. } = f.inst(iid) else {
                    continue;
                };
                let Some(id) = intrinsic_id(callee) else {
                    continue;
                };
                if pos == 0 {
                    return false;
                }
                let Inst::Call {
                    callee: prev_callee,
                    args,
                    ..
                } = f.inst(insts[pos - 1])
                else {
                    return false;
                };
                let ok = prev_callee == INTRINSIC_GUARD_SYMBOL
                    && args.len() == 1
                    && args[0] == Value::ConstInt(Type::I32, id as u64);
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

/// Count privileged-intrinsic call sites.
pub fn privileged_call_count(module: &Module) -> u64 {
    let mut n = 0;
    for f in &module.functions {
        for (_, iid) in f.placed_insts() {
            if let Inst::Call { callee, .. } = f.inst(iid) {
                if intrinsic_id(callee).is_some() {
                    n += 1;
                }
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::{parse_module, verify_module};

    const PRIV_SRC: &str = r#"
module "msr"
declare void @__wrmsr(i64, i64)
declare i64 @__rdmsr(i64)
define i64 @setup() {
entry:
  call void @__wrmsr(i64 0xC0000080, i64 0x500)
  %v = call i64 @__rdmsr(i64 0xC0000080)
  ret i64 %v
}
"#;

    #[test]
    fn ids_are_stable_and_distinct() {
        let id_wrmsr = intrinsic_id("__wrmsr").unwrap();
        let id_rdmsr = intrinsic_id("__rdmsr").unwrap();
        assert_ne!(id_wrmsr, id_rdmsr);
        assert_eq!(PRIVILEGED_INTRINSICS[id_wrmsr as usize], "__wrmsr");
        assert_eq!(intrinsic_id("not_privileged"), None);
    }

    #[test]
    fn wrap_pass_inserts_guards() {
        let mut m = parse_module(PRIV_SRC).unwrap();
        assert!(!validate_intrinsic_wraps(&m));
        let stats = IntrinsicWrapPass.run(&mut m);
        assert_eq!(stats.get("intrinsics_wrapped"), 2);
        assert_eq!(m.call_count(INTRINSIC_GUARD_SYMBOL), 2);
        assert!(validate_intrinsic_wraps(&m));
        verify_module(&m).expect("verifies after wrapping");
        assert!(m.imported_symbols().contains(&INTRINSIC_GUARD_SYMBOL));
    }

    #[test]
    fn wrap_pass_noop_without_privileged_calls() {
        let src = r#"
module "clean"
declare void @printk(i64)
define void @f() {
entry:
  call void @printk(i64 1)
  ret void
}
"#;
        let mut m = parse_module(src).unwrap();
        let stats = IntrinsicWrapPass.run(&mut m);
        assert_eq!(stats.get("intrinsics_wrapped"), 0);
        assert!(!m.imported_symbols().contains(&INTRINSIC_GUARD_SYMBOL));
        assert!(validate_intrinsic_wraps(&m), "vacuously valid");
    }

    #[test]
    fn validate_rejects_wrong_id() {
        let mut m = parse_module(PRIV_SRC).unwrap();
        IntrinsicWrapPass.run(&mut m);
        // Tamper: change one guard's id argument.
        let f = m.function_mut("setup").unwrap();
        for (_, iid) in f.placed_insts() {
            if let Inst::Call { callee, args, .. } = f.inst_mut(iid) {
                if callee == INTRINSIC_GUARD_SYMBOL {
                    args[0] = Value::ConstInt(Type::I32, 999);
                    break;
                }
            }
        }
        assert!(!validate_intrinsic_wraps(&m));
    }

    #[test]
    fn privileged_counting() {
        let m = parse_module(PRIV_SRC).unwrap();
        assert_eq!(privileged_call_count(&m), 2);
    }
}
