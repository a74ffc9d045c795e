//! The KIR verifier.
//!
//! The kernel loader re-verifies modules at insertion time (paper §2: the
//! compiler's signature asserts the module was processed, and the kernel
//! "validates" it when the transformed module is inserted). The verifier
//! enforces:
//!
//! * every block has a terminator, every branch target exists,
//! * SSA discipline: every use is dominated by its definition (phi inputs
//!   checked against the corresponding predecessor edge),
//! * type correctness of every instruction,
//! * calls match the signature of a defined function or extern declaration,
//! * phis list exactly the block's predecessors,
//! * globals' initializers match their types.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::dom::DomTree;
use crate::function::{BlockId, Function, InstId};
use crate::inst::{CastOp, Inst, Terminator, Value};
use crate::module::{GlobalInit, Module};
use crate::types::Type;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred (empty for module-level errors).
    pub function: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.function.is_empty() {
            write!(f, "verify error: {}", self.message)
        } else {
            write!(f, "verify error in @{}: {}", self.function, self.message)
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module. Returns the first error found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    // Module-level: unique symbol names.
    let mut seen = BTreeSet::new();
    for name in m
        .functions
        .iter()
        .map(|f| &f.name)
        .chain(m.globals.iter().map(|g| &g.name))
        .chain(m.externs.iter().map(|e| &e.name))
    {
        if !seen.insert(name.clone()) {
            return Err(VerifyError {
                function: String::new(),
                message: format!("duplicate symbol '@{name}'"),
            });
        }
    }

    // Globals: initializer matches type.
    for g in &m.globals {
        match &g.init {
            GlobalInit::Zero => {}
            GlobalInit::Int(_) => {
                if !g.ty.is_int() && g.ty != Type::Ptr {
                    return Err(VerifyError {
                        function: String::new(),
                        message: format!(
                            "global '@{}' has integer initializer but type {}",
                            g.name, g.ty
                        ),
                    });
                }
            }
            GlobalInit::Bytes(b) => {
                if b.len() as u64 != g.ty.size_of() {
                    return Err(VerifyError {
                        function: String::new(),
                        message: format!(
                            "global '@{}' byte initializer has {} bytes but type {} has {}",
                            g.name,
                            b.len(),
                            g.ty,
                            g.ty.size_of()
                        ),
                    });
                }
            }
        }
    }

    for f in &m.functions {
        verify_function(m, f)?;
    }
    Ok(())
}

fn err(f: &Function, message: impl Into<String>) -> VerifyError {
    VerifyError {
        function: f.name.clone(),
        message: message.into(),
    }
}

fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    if f.blocks.is_empty() {
        return Err(err(f, "function has no blocks"));
    }
    for ty in &f.params {
        if !ty.is_first_class() {
            return Err(err(f, "parameter of type void"));
        }
    }

    // Structural checks.
    for bid in f.block_ids() {
        let blk = f.block(bid);
        match &blk.term {
            None => return Err(err(f, format!("block '{}' has no terminator", blk.name))),
            Some(t) => {
                for succ in t.successors() {
                    if succ.0 as usize >= f.blocks.len() {
                        return Err(err(f, format!("branch to nonexistent block {succ:?}")));
                    }
                }
            }
        }
    }

    // Definition sites for dominance checking.
    let mut def_site: BTreeMap<InstId, (BlockId, usize)> = BTreeMap::new();
    for bid in f.block_ids() {
        for (pos, &iid) in f.block(bid).insts.iter().enumerate() {
            if def_site.insert(iid, (bid, pos)).is_some() {
                return Err(err(f, format!("instruction {iid:?} placed twice")));
            }
        }
    }

    let dom = DomTree::compute(f);
    let preds = f.predecessors();

    // Per-instruction checks.
    for bid in f.block_ids() {
        let blk = f.block(bid);
        for (pos, &iid) in blk.insts.iter().enumerate() {
            let inst = f.inst(iid);
            verify_inst_types(m, f, inst)?;

            // Phis must be at the head of the block and match predecessors.
            if let Inst::Phi { incomings, .. } = inst {
                let leading_phis = blk
                    .insts
                    .iter()
                    .take_while(|&&i| matches!(f.inst(i), Inst::Phi { .. }))
                    .count();
                if pos >= leading_phis {
                    return Err(err(f, format!("phi not at head of block '{}'", blk.name)));
                }
                if dom.is_reachable(bid) {
                    let expected: BTreeSet<BlockId> =
                        preds[bid.0 as usize].iter().copied().collect();
                    let got: BTreeSet<BlockId> = incomings.iter().map(|(b, _)| *b).collect();
                    if got.len() != incomings.len() {
                        return Err(err(f, "phi has duplicate incoming blocks"));
                    }
                    if expected != got {
                        return Err(err(
                            f,
                            format!(
                                "phi in '{}' incoming blocks do not match predecessors",
                                blk.name
                            ),
                        ));
                    }
                }
            }

            // Dominance of operands (skip for phis — handled per-edge).
            if !matches!(inst, Inst::Phi { .. }) {
                let mut bad: Option<String> = None;
                inst.for_each_operand(|v| {
                    if bad.is_some() {
                        return;
                    }
                    if let Some(msg) = check_use(m, f, &dom, &def_site, v, bid, pos) {
                        bad = Some(msg);
                    }
                });
                if let Some(msg) = bad {
                    return Err(err(f, msg));
                }
            } else if let Inst::Phi { incomings, .. } = inst {
                for (pred, v) in incomings {
                    if let Some(msg) = undeclared_global(m, v) {
                        return Err(err(f, msg));
                    }
                    if let Value::Inst(src) = v {
                        let Some(&(db, _)) = def_site.get(src) else {
                            return Err(err(f, format!("phi uses unplaced {src:?}")));
                        };
                        // The def must dominate the end of the incoming edge's
                        // predecessor block.
                        if dom.is_reachable(*pred) && !dom.dominates(db, *pred) {
                            return Err(err(
                                f,
                                format!(
                                    "phi incoming value {src:?} does not dominate edge from '{}'",
                                    f.block(*pred).name
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // Terminator operands.
        let term = blk.term.as_ref().expect("checked above");
        let mut bad: Option<String> = None;
        term.for_each_operand(|v| {
            if bad.is_some() {
                return;
            }
            if let Some(msg) = check_use(m, f, &dom, &def_site, v, bid, blk.insts.len()) {
                bad = Some(msg);
            }
        });
        if let Some(msg) = bad {
            return Err(err(f, msg));
        }
        verify_terminator_types(f, term)?;
    }
    Ok(())
}

/// Check that a use of `v` at position `(bid, pos)` is dominated by its
/// def and that a global it names is declared.
fn check_use(
    m: &Module,
    f: &Function,
    dom: &DomTree,
    def_site: &BTreeMap<InstId, (BlockId, usize)>,
    v: &Value,
    bid: BlockId,
    pos: usize,
) -> Option<String> {
    match v {
        Value::Inst(src) => {
            let Some(&(db, dp)) = def_site.get(src) else {
                return Some(format!("use of unplaced instruction {src:?}"));
            };
            if !dom.is_reachable(bid) {
                return None; // uses in unreachable code are not checked
            }
            let ok = if db == bid {
                dp < pos
            } else {
                dom.dominates(db, bid)
            };
            if ok {
                None
            } else {
                Some(format!(
                    "use of {src:?} in '{}' not dominated by its definition",
                    f.block(bid).name
                ))
            }
        }
        Value::Arg(i) => {
            if (*i as usize) < f.params.len() {
                None
            } else {
                Some(format!("use of out-of-range argument %{i}"))
            }
        }
        _ => undeclared_global(m, v),
    }
}

fn undeclared_global(m: &Module, v: &Value) -> Option<String> {
    match v {
        Value::Global(name) if m.global(name).is_none() => {
            Some(format!("use of undeclared global @{name}"))
        }
        _ => None,
    }
}

fn verify_inst_types(m: &Module, f: &Function, inst: &Inst) -> Result<(), VerifyError> {
    let want = |v: &Value, want_ty: &Type, what: &str| -> Result<(), VerifyError> {
        match f.value_type(v) {
            Some(got) if &got == want_ty => Ok(()),
            Some(got) => Err(err(f, format!("{what}: expected {want_ty}, got {got}"))),
            None => Err(err(f, format!("{what}: untyped operand"))),
        }
    };

    match inst {
        Inst::Alloca { ty, count } => {
            if !ty.is_first_class() {
                return Err(err(f, "alloca of void"));
            }
            if *count == 0 {
                return Err(err(f, "alloca of zero elements"));
            }
        }
        Inst::Load { ty, ptr } => {
            if !ty.is_memory_scalar() {
                return Err(err(f, format!("load of non-scalar type {ty}")));
            }
            want(ptr, &Type::Ptr, "load pointer")?;
        }
        Inst::Store { ty, val, ptr } => {
            if !ty.is_memory_scalar() {
                return Err(err(f, format!("store of non-scalar type {ty}")));
            }
            want(val, ty, "store value")?;
            want(ptr, &Type::Ptr, "store pointer")?;
        }
        Inst::Gep {
            base_ty,
            ptr,
            indices,
        } => {
            if indices.is_empty() {
                return Err(err(f, "gep with no indices"));
            }
            want(ptr, &Type::Ptr, "gep pointer")?;
            // First index scales by base_ty; must be an integer.
            let mut cur = base_ty.clone();
            for (k, idx) in indices.iter().enumerate() {
                let ity = f
                    .value_type(idx)
                    .ok_or_else(|| err(f, "gep index untyped"))?;
                if !ity.is_int() {
                    return Err(err(f, format!("gep index {k} of type {ity}")));
                }
                if k == 0 {
                    continue;
                }
                // Step into the aggregate.
                match &cur {
                    Type::Array(elem, _) => cur = (**elem).clone(),
                    Type::Struct(_) => {
                        let Value::ConstInt(_, c) = idx else {
                            return Err(err(f, "gep struct index must be constant"));
                        };
                        let next = cur
                            .indexed_type(*c)
                            .ok_or_else(|| err(f, format!("gep struct index {c} out of range")))?
                            .clone();
                        cur = next;
                    }
                    other => {
                        return Err(err(
                            f,
                            format!("gep index {k} steps into non-aggregate {other}"),
                        ))
                    }
                }
            }
        }
        Inst::Bin { ty, lhs, rhs, .. } => {
            if !ty.is_int() {
                return Err(err(f, format!("binary op on non-integer type {ty}")));
            }
            want(lhs, ty, "binop lhs")?;
            want(rhs, ty, "binop rhs")?;
        }
        Inst::Icmp { ty, lhs, rhs, .. } => {
            if !ty.is_int() && ty != &Type::Ptr {
                return Err(err(f, format!("icmp on type {ty}")));
            }
            want(lhs, ty, "icmp lhs")?;
            want(rhs, ty, "icmp rhs")?;
        }
        Inst::Cast {
            op,
            from_ty,
            to_ty,
            val,
        } => {
            want(val, from_ty, "cast operand")?;
            let ok = match op {
                CastOp::Zext | CastOp::Sext => {
                    from_ty.is_int() && to_ty.is_int() && from_ty.int_bits() < to_ty.int_bits()
                }
                CastOp::Trunc => {
                    from_ty.is_int() && to_ty.is_int() && from_ty.int_bits() > to_ty.int_bits()
                }
                CastOp::PtrToInt => from_ty == &Type::Ptr && to_ty.is_int(),
                CastOp::IntToPtr => from_ty.is_int() && to_ty == &Type::Ptr,
            };
            if !ok {
                return Err(err(f, format!("invalid cast {op} {from_ty} to {to_ty}")));
            }
        }
        Inst::Select {
            ty,
            cond,
            then_val,
            else_val,
        } => {
            if !ty.is_first_class() {
                return Err(err(f, "select of void"));
            }
            want(cond, &Type::I1, "select condition")?;
            want(then_val, ty, "select then")?;
            want(else_val, ty, "select else")?;
        }
        Inst::Call {
            callee,
            ret_ty,
            args,
        } => {
            let Some((params, ret)) = m.callee_signature(callee) else {
                return Err(err(f, format!("call to unknown symbol '@{callee}'")));
            };
            if &ret != ret_ty {
                return Err(err(
                    f,
                    format!("call to '@{callee}': declared return {ret}, written {ret_ty}"),
                ));
            }
            if params.len() != args.len() {
                return Err(err(
                    f,
                    format!(
                        "call to '@{callee}': {} args, expected {}",
                        args.len(),
                        params.len()
                    ),
                ));
            }
            for (i, (a, p)) in args.iter().zip(params.iter()).enumerate() {
                want(a, p, &format!("call arg {i}"))?;
            }
        }
        Inst::Phi { ty, incomings } => {
            if !ty.is_first_class() {
                return Err(err(f, "phi of void"));
            }
            for (_, v) in incomings {
                want(v, ty, "phi incoming")?;
            }
        }
        Inst::Asm { .. } => {}
    }
    Ok(())
}

fn verify_terminator_types(f: &Function, term: &Terminator) -> Result<(), VerifyError> {
    match term {
        Terminator::CondBr { cond, .. } => match f.value_type(cond) {
            Some(Type::I1) => Ok(()),
            other => Err(err(f, format!("condbr condition of type {other:?}"))),
        },
        Terminator::Switch { ty, val, .. } => {
            if !ty.is_int() {
                return Err(err(f, format!("switch on non-integer {ty}")));
            }
            match f.value_type(val) {
                Some(got) if &got == ty => Ok(()),
                other => Err(err(f, format!("switch scrutinee of type {other:?}"))),
            }
        }
        Terminator::Ret(None) => {
            if f.ret_ty == Type::Void {
                Ok(())
            } else {
                Err(err(f, "ret void in non-void function"))
            }
        }
        Terminator::Ret(Some(v)) => match f.value_type(v) {
            Some(got) if got == f.ret_ty => Ok(()),
            other => Err(err(
                f,
                format!("ret of type {other:?}, function returns {}", f.ret_ty),
            )),
        },
        Terminator::Br(_) | Terminator::Unreachable => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    fn check(src: &str) -> Result<(), VerifyError> {
        verify_module(&parse_module(src).expect("parse"))
    }

    #[test]
    fn valid_module_passes() {
        let src = r#"
module "ok"
declare void @carat_guard(ptr, i64, i32)
global @g : i64 = 0
define i64 @f(ptr %p, i64 %n) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  %v = load i64, ptr %p
  %s = add i64 %v, %n
  store i64 %s, ptr @g
  ret i64 %s
}
"#;
        check(src).expect("verifies");
    }

    #[test]
    fn rejects_type_mismatch_in_binop() {
        let src = r#"
module "bad"
define i64 @f(i32 %x) {
entry:
  %v = add i64 %x, 1
  ret i64 %v
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("binop lhs"), "{e}");
    }

    #[test]
    fn rejects_call_to_unknown_symbol() {
        let src = r#"
module "bad"
define void @f() {
entry:
  call void @mystery()
  ret void
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("unknown symbol"), "{e}");
    }

    #[test]
    fn rejects_use_of_undeclared_global() {
        for body in [
            "%v = load i64, ptr @h\n  ret i64 %v",
            "store i64 1, ptr @h\n  ret i64 0",
            "br %next\nnext:\n  %q = phi ptr [ @h, %entry ]\n  ret i64 0",
        ] {
            let src = format!(
                "module \"bad\"\nglobal @g : i64 = 0\ndefine i64 @f() {{\nentry:\n  {body}\n}}\n"
            );
            let e = check(&src).unwrap_err();
            assert!(e.message.contains("undeclared global @h"), "{body}: {e}");
            check(&src.replace("@h", "@g")).expect("declared global verifies");
        }
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let src = r#"
module "bad"
declare void @g(i64)
define void @f() {
entry:
  call void @g()
  ret void
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("expected 1"), "{e}");
    }

    #[test]
    fn rejects_use_before_def_in_straightline() {
        let src = r#"
module "bad"
define i64 @f() {
entry:
  %a = add i64 %b, 1
  %b = add i64 1, 1
  ret i64 %a
}
"#;
        // Parser itself rejects this (undefined at parse point is allowed
        // only via forward refs)... the parser pre-allocates all names, so
        // this parses; the verifier must catch the dominance violation.
        let e = check(src).unwrap_err();
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn rejects_use_not_dominating_across_blocks() {
        let src = r#"
module "bad"
define i64 @f(i1 %c) {
entry:
  condbr i1 %c, %a, %b
a:
  %x = add i64 1, 1
  br %join
b:
  br %join
join:
  ret i64 %x
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn accepts_phi_merge() {
        let src = r#"
module "ok"
define i64 @f(i1 %c) {
entry:
  condbr i1 %c, %a, %b
a:
  %x = add i64 1, 1
  br %join
b:
  %y = add i64 2, 2
  br %join
join:
  %m = phi i64 [ %x, %a ], [ %y, %b ]
  ret i64 %m
}
"#;
        check(src).expect("verifies");
    }

    #[test]
    fn rejects_phi_with_wrong_preds() {
        let src = r#"
module "bad"
define i64 @f(i1 %c) {
entry:
  condbr i1 %c, %a, %join
a:
  br %join
join:
  %m = phi i64 [ 1, %a ], [ 2, %a ]
  ret i64 %m
}
"#;
        let e = check(src).unwrap_err();
        assert!(
            e.message.contains("duplicate incoming") || e.message.contains("do not match"),
            "{e}"
        );
    }

    #[test]
    fn rejects_phi_not_at_head() {
        let src = r#"
module "bad"
define i64 @f() {
entry:
  br %l
l:
  %a = add i64 1, 1
  %m = phi i64 [ 0, %entry ]
  ret i64 %m
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("phi not at head"), "{e}");
    }

    #[test]
    fn rejects_bad_cast() {
        let src = r#"
module "bad"
define i64 @f(i64 %x) {
entry:
  %v = zext i64 %x to i64
  ret i64 %v
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("invalid cast"), "{e}");
    }

    #[test]
    fn rejects_ret_type_mismatch() {
        let src = r#"
module "bad"
define i64 @f() {
entry:
  ret void
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("ret void in non-void"), "{e}");
    }

    #[test]
    fn rejects_duplicate_symbols() {
        let src = r#"
module "bad"
global @f : i64 = 0
define void @f() {
entry:
  ret void
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("duplicate symbol"), "{e}");
    }

    #[test]
    fn rejects_bad_global_bytes_len() {
        let src = r#"
module "bad"
global @b : [4 x i8] = bytes [0x01 0x02]
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("byte initializer"), "{e}");
    }

    #[test]
    fn rejects_load_of_aggregate() {
        let src = r#"
module "bad"
define void @f(ptr %p) {
entry:
  %v = load [4 x i8], ptr %p
  ret void
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("non-scalar"), "{e}");
    }

    #[test]
    fn gep_struct_index_must_be_constant() {
        let src = r#"
module "bad"
define ptr @f(ptr %p, i32 %i) {
entry:
  %q = gep { i64, i32 }, ptr %p, i64 0, i32 %i
  ret ptr %q
}
"#;
        let e = check(src).unwrap_err();
        assert!(e.message.contains("must be constant"), "{e}");
    }

    #[test]
    fn gep_valid_struct_walk() {
        let src = r#"
module "ok"
define ptr @f(ptr %p, i64 %i) {
entry:
  %q = gep { i64, [4 x i32], i8 }, ptr %p, i64 %i, i32 1, i64 2
  ret ptr %q
}
"#;
        check(src).expect("verifies");
    }
}
