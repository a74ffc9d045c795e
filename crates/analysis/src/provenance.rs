//! Pointer provenance: which pointers are laundered?
//!
//! `inttoptr` of a non-constant integer *launders* provenance — the
//! classic rootkit trick for reaching kernel objects the module was never
//! given — and every access through such a pointer is reported as KA003.
//! `inttoptr` of a constant is a fixed absolute address, not a laundered
//! one.
//!
//! The answer is one bit per instruction, solved to fixpoint per
//! function: `gep` and a `ptrtoint`→`inttoptr` round trip pass their
//! pointer's bit through, and a `select` or pointer `phi` is laundered
//! when any input is — so neither a `select` against `null` nor a
//! pointer-walking loop hides a laundered pointer.

use std::collections::HashSet;

use kop_ir::{CastOp, Function, Inst, InstId, Module, Type, Value};

use crate::diagnostics::{AnalysisReport, Diagnostic, LintCode};

/// The instructions of `f` whose result is a laundered pointer.
fn laundered_insts(f: &Function) -> HashSet<InstId> {
    let mut laundered = HashSet::new();
    // Every transfer is monotone in the set, so starting from the empty
    // set this climbs to the least fixpoint.
    loop {
        let mut changed = false;
        for (_, iid) in f.placed_insts() {
            if !laundered.contains(&iid) && transfer(f, iid, &laundered) {
                laundered.insert(iid);
                changed = true;
            }
        }
        if !changed {
            return laundered;
        }
    }
}

fn is_laundered(v: &Value, laundered: &HashSet<InstId>) -> bool {
    matches!(v, Value::Inst(id) if laundered.contains(id))
}

/// Whether `iid`'s result is laundered, given the set found so far.
fn transfer(f: &Function, iid: InstId, laundered: &HashSet<InstId>) -> bool {
    match f.inst(iid) {
        Inst::Gep { ptr, .. } => is_laundered(ptr, laundered),
        Inst::Cast {
            op: CastOp::IntToPtr,
            val,
            ..
        } => match val {
            Value::ConstInt(..) => false,
            // A round-tripped pointer (ptrtoint→inttoptr) keeps the bit
            // of the pointer it started from; every other int is
            // laundering.
            Value::Inst(id) => match f.inst(*id) {
                Inst::Cast {
                    op: CastOp::PtrToInt,
                    val: inner,
                    ..
                } => is_laundered(inner, laundered),
                _ => true,
            },
            _ => true,
        },
        Inst::Select {
            then_val, else_val, ..
        } => is_laundered(then_val, laundered) || is_laundered(else_val, laundered),
        Inst::Phi { incomings, ty } if *ty == Type::Ptr => {
            incomings.iter().any(|(_, v)| is_laundered(v, laundered))
        }
        // Allocas, loads of pointers, call results, arithmetic, …
        _ => false,
    }
}

/// Flag every access through a laundered pointer (KA003).
pub fn analyze_provenance(module: &Module) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for f in &module.functions {
        if f.blocks.is_empty() {
            continue;
        }
        let laundered = laundered_insts(f);
        for bid in f.block_ids() {
            for (idx, &iid) in f.block(bid).insts.iter().enumerate() {
                let (Inst::Load { ptr, .. } | Inst::Store { ptr, .. }) = f.inst(iid) else {
                    continue;
                };
                if !is_laundered(ptr, &laundered) {
                    continue;
                }
                let name = f.inst_name(iid);
                report.push(Diagnostic {
                    code: LintCode::LaunderedPointer,
                    function: f.name.clone(),
                    block: f.block(bid).name.clone(),
                    inst_index: idx,
                    inst: if name.is_empty() {
                        format!("store #{idx}")
                    } else {
                        format!("%{name}")
                    },
                    message: "pointer provenance erased by inttoptr; \
                              the guard cannot be elided and the access \
                              deserves scrutiny"
                        .to_string(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::parse_module;

    fn ka003(src: &str) -> usize {
        let m = parse_module(src).unwrap();
        analyze_provenance(&m)
            .with_code(LintCode::LaunderedPointer)
            .count()
    }

    #[test]
    fn stack_global_and_argument_pointers_are_not_laundered() {
        let src = r#"
module "cls"
global @g : i64 = 0
define void @f(ptr %arg) {
entry:
  %slot = alloca i64, 1
  %gp = gep i64, ptr @g, i64 0
  %ap = gep i64, ptr %arg, i64 2
  store i64 1, ptr %slot
  store i64 2, ptr %gp
  store i64 3, ptr %ap
  ret void
}
"#;
        assert_eq!(ka003(src), 0);
    }

    #[test]
    fn inttoptr_of_variable_launders_and_warns_ka003() {
        let src = r#"
module "rootkit"
define i64 @peek(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        let m = parse_module(src).unwrap();
        let r = analyze_provenance(&m);
        assert_eq!(r.with_code(LintCode::LaunderedPointer).count(), 1);
        // A warning, not an error: runtime guards still police it.
        assert!(r.is_clean());
    }

    #[test]
    fn gep_of_a_laundered_pointer_stays_laundered() {
        let src = r#"
module "gep"
define i64 @f(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %q = gep i64, ptr %p, i64 4
  %v = load i64, ptr %q
  ret i64 %v
}
"#;
        assert_eq!(ka003(src), 1);
    }

    #[test]
    fn roundtrip_cast_keeps_provenance() {
        let clean = r#"
module "rt"
define i64 @f(ptr %p) {
entry:
  %i = ptrtoint ptr %p to i64
  %q = inttoptr i64 %i to ptr
  %v = load i64, ptr %q
  ret i64 %v
}
"#;
        assert_eq!(ka003(clean), 0);
        let laundered = r#"
module "rt"
define i64 @f(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %i = ptrtoint ptr %p to i64
  %q = inttoptr i64 %i to ptr
  %v = load i64, ptr %q
  ret i64 %v
}
"#;
        assert_eq!(ka003(laundered), 1);
    }

    #[test]
    fn constant_inttoptr_is_not_laundered() {
        let src = r#"
module "abs"
define i64 @f() {
entry:
  %p = inttoptr i64 4096 to ptr
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        assert_eq!(ka003(src), 0);
    }

    #[test]
    fn select_against_null_stays_laundered() {
        let src = r#"
module "sel"
define i64 @f(i1 %c, i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %q = select i1 %c, ptr %p, ptr null
  %v = load i64, ptr %q
  ret i64 %v
}
"#;
        assert_eq!(ka003(src), 1);
    }

    #[test]
    fn a_loop_walking_a_laundered_pointer_stays_laundered() {
        let src = r#"
module "walk"
define void @f(i64 %addr, i64 %n) {
entry:
  %p = inttoptr i64 %addr to ptr
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %head ]
  %m = phi ptr [ %p, %entry ], [ %m2, %head ]
  store i64 0, ptr %m
  %m2 = gep i64, ptr %m, i64 1
  %i2 = add i64 %i, 1
  %more = icmp ult i64 %i2, %n
  condbr i1 %more, %head, %exit
exit:
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let r = analyze_provenance(&m);
        let hits: Vec<_> = r.with_code(LintCode::LaunderedPointer).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].block.as_str(), hits[0].inst_index), ("head", 2));
    }

    #[test]
    fn phi_of_laundered_pointers_stays_laundered() {
        let src = r#"
module "phi"
define i64 @f(i1 %c, i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  condbr i1 %c, %l, %r
l:
  %lp = gep i64, ptr %p, i64 0
  br %join
r:
  %rp = gep i64, ptr %p, i64 1
  br %join
join:
  %m = phi ptr [ %lp, %l ], [ %rp, %r ]
  %v = load i64, ptr %m
  ret i64 %v
}
"#;
        assert_eq!(ka003(src), 1);
    }
}
