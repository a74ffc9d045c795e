//! KIR → bytecode lowering. Runs once per module, at insmod.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use kop_core::VAddr;
use kop_ir::{BlockId, Function, Inst, InstId, Module, Terminator, Type, Value};
use kop_trace::{SiteTable, GUARD_SYMBOL, INTRINSIC_GUARD_SYMBOL};

use crate::{CompiledFunc, CompiledModule, Edge, HostFn, Move, Op, Src};

/// Why a module could not be lowered. On verified, insmod-laid-out
/// modules lowering almost always succeeds; these cover IR the verifier
/// accepts but the bytecode cannot express (a `carat_guard` declared
/// and called with fewer than three arguments, say). The loader refuses
/// such a module at insmod.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// A `Value::Global` names a global with no laid-out address.
    UnknownGlobal {
        /// The global's symbol name.
        name: String,
    },
    /// Structurally invalid IR reached the lowerer (e.g. a guard call
    /// with fewer than three arguments, a phi with no incoming for a
    /// predecessor, a gep walking a non-aggregate).
    Malformed {
        /// Function the defect was found in.
        function: String,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownGlobal { name } => write!(f, "unknown global @{name}"),
            LowerError::Malformed { function, what } => {
                write!(f, "malformed IR in @{function}: {what}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// The value mask a type implies: all-ones for 64-bit and non-integer
/// (pointer) types, `2^bits - 1` for narrower integers. `v & mask_of(ty)`
/// computes exactly the tree interpreter's `mask(ty, v)`.
fn mask_of(ty: &Type) -> u64 {
    match ty.int_bits() {
        Some(64) | None => u64::MAX,
        Some(bits) => (1u64 << bits) - 1,
    }
}

fn bits_of(ty: &Type) -> u32 {
    ty.int_bits().unwrap_or(64)
}

/// Lower a verified module to bytecode against its
/// insmod-time address layout. `sites` is the tracer's guard-site table
/// for the module, so guard ops carry their [`kop_trace::SiteId`] inline.
pub fn lower_module(
    ir: &Module,
    globals: &BTreeMap<String, VAddr>,
    func_addrs: &BTreeMap<String, VAddr>,
    sites: Option<&SiteTable>,
) -> Result<CompiledModule, LowerError> {
    let func_index: BTreeMap<&str, u32> = ir
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i as u32))
        .collect();
    let mut funcs = Vec::with_capacity(ir.functions.len());
    for f in &ir.functions {
        let mut lowerer = FnLowerer {
            f,
            globals,
            func_addrs,
            func_index: &func_index,
            sites,
            code: Vec::new(),
            edges: Vec::new(),
        };
        funcs.push(lowerer.lower()?);
    }
    Ok(CompiledModule::new(ir.name.clone(), funcs))
}

struct FnLowerer<'a> {
    f: &'a Function,
    globals: &'a BTreeMap<String, VAddr>,
    func_addrs: &'a BTreeMap<String, VAddr>,
    func_index: &'a BTreeMap<&'a str, u32>,
    sites: Option<&'a SiteTable>,
    code: Vec<Op>,
    edges: Vec<Edge>,
}

impl<'a> FnLowerer<'a> {
    fn malformed(&self, what: impl Into<String>) -> LowerError {
        LowerError::Malformed {
            function: self.f.name.clone(),
            what: what.into(),
        }
    }

    fn value(&self, v: &Value) -> Result<Src, LowerError> {
        Ok(match v {
            // Pre-masked by the constant's own type, exactly like the
            // tree interpreter's eval of ConstInt.
            Value::ConstInt(ty, val) => Src::Imm(val & mask_of(ty)),
            Value::NullPtr => Src::Imm(0),
            Value::Global(name) => Src::Imm(
                self.globals
                    .get(name)
                    .ok_or_else(|| LowerError::UnknownGlobal { name: name.clone() })?
                    .raw(),
            ),
            // Unknown function addresses get the tree's poison value.
            Value::FuncAddr(name) => Src::Imm(
                self.func_addrs
                    .get(name)
                    .map(|a| a.raw())
                    .unwrap_or(0xffff_ffff_dead_0000),
            ),
            Value::Arg(i) => Src::Arg(*i),
            Value::Inst(id) => Src::Reg(id.0),
        })
    }

    /// Build the edge for `pred → succ`: target (as a BlockId, patched to
    /// an offset later), the phi move schedule, and its fuel charge.
    fn make_edge(&mut self, pred: BlockId, succ: BlockId) -> Result<u32, LowerError> {
        let phi_count = self.f.leading_phi_count(succ);
        let mut moves = Vec::with_capacity(phi_count);
        for &iid in &self.f.block(succ).insts[..phi_count] {
            let Inst::Phi { ty, incomings } = self.f.inst(iid) else {
                return Err(self.malformed("non-phi in leading-phi range"));
            };
            let (_, v) = incomings.iter().find(|(b, _)| *b == pred).ok_or_else(|| {
                self.malformed(format!(
                    "phi in block {} has no incoming for predecessor {}",
                    self.f.block(succ).name,
                    self.f.block(pred).name
                ))
            })?;
            moves.push(Move {
                dst: iid.0,
                src: self.value(v)?,
                mask: mask_of(ty),
            });
        }
        // Parallel-move semantics: only stage when some move reads a
        // register another move writes.
        let dsts: BTreeSet<u32> = moves.iter().map(|m| m.dst).collect();
        let staged = moves
            .iter()
            .any(|m| matches!(m.src, Src::Reg(r) if dsts.contains(&r)));
        let idx = self.edges.len() as u32;
        self.edges.push(Edge {
            target: succ.0, // patched to a code offset after all blocks lower
            moves: moves.into_boxed_slice(),
            phi_burn: phi_count as u32,
            staged,
        });
        Ok(idx)
    }

    fn lower_guard_operands(&self, args: &[Value]) -> Result<(Src, Src, Src), LowerError> {
        if args.len() < 3 {
            return Err(self.malformed(format!(
                "{GUARD_SYMBOL} call with {} argument(s), need 3",
                args.len()
            )));
        }
        Ok((
            self.value(&args[0])?,
            self.value(&args[1])?,
            self.value(&args[2])?,
        ))
    }

    fn site_of(&self, iid: InstId) -> Option<kop_trace::SiteId> {
        self.sites.and_then(|s| s.lookup(&self.f.name, iid.0))
    }

    fn lower_inst(&mut self, iid: InstId) -> Result<(), LowerError> {
        let dst = iid.0;
        let op = match self.f.inst(iid) {
            Inst::Phi { .. } => {
                return Err(self.malformed("phi past the leading-phi range"));
            }
            Inst::Alloca { ty, count } => Op::Alloca {
                size: ty.size_of().max(1) * count,
                align: ty.align_of().max(1),
                dst,
            },
            Inst::Load { ty, ptr } => Op::Load {
                size: ty.size_of(),
                mask: mask_of(ty),
                ptr: self.value(ptr)?,
                dst,
            },
            Inst::Store { ty, val, ptr } => Op::Store {
                size: ty.size_of(),
                mask: mask_of(ty),
                val: self.value(val)?,
                ptr: self.value(ptr)?,
            },
            Inst::Gep {
                base_ty,
                ptr,
                indices,
            } => {
                // Fold every constant contribution into one offset; keep
                // `scale · index` terms for the dynamic indices. Wrapping
                // addition is commutative, so the regrouping is exact.
                let mut offset = 0u64;
                let mut terms = Vec::new();
                fn push(offset: &mut u64, terms: &mut Vec<(u64, Src)>, scale: u64, src: Src) {
                    match src {
                        Src::Imm(v) => *offset = offset.wrapping_add(scale.wrapping_mul(v)),
                        src => terms.push((scale, src)),
                    }
                }
                let first = self.value(&indices[0])?;
                push(&mut offset, &mut terms, base_ty.size_of(), first);
                let mut cur_ty = base_ty;
                for idx in &indices[1..] {
                    match cur_ty {
                        Type::Array(elem, _) => {
                            let src = self.value(idx)?;
                            push(&mut offset, &mut terms, elem.size_of(), src);
                            cur_ty = elem;
                        }
                        Type::Struct(_) => {
                            let Value::ConstInt(_, c) = idx else {
                                return Err(self.malformed("non-constant struct gep index"));
                            };
                            let off = cur_ty
                                .struct_field_offset(*c as usize)
                                .ok_or_else(|| self.malformed("struct gep index out of range"))?;
                            offset = offset.wrapping_add(off);
                            cur_ty = cur_ty
                                .indexed_type(*c)
                                .ok_or_else(|| self.malformed("struct gep index out of range"))?;
                        }
                        _ => return Err(self.malformed("gep walks a non-aggregate type")),
                    }
                }
                Op::Gep {
                    base: self.value(ptr)?,
                    offset,
                    terms: terms.into_boxed_slice(),
                    dst,
                }
            }
            Inst::Bin { op, ty, lhs, rhs } => Op::Bin {
                op: *op,
                mask: mask_of(ty),
                bits: bits_of(ty),
                lhs: self.value(lhs)?,
                rhs: self.value(rhs)?,
                dst,
            },
            Inst::Icmp { pred, ty, lhs, rhs } => Op::Icmp {
                pred: *pred,
                mask: mask_of(ty),
                bits: bits_of(ty),
                lhs: self.value(lhs)?,
                rhs: self.value(rhs)?,
                dst,
            },
            Inst::Cast {
                op,
                from_ty,
                to_ty,
                val,
            } => Op::Cast {
                op: *op,
                from_mask: mask_of(from_ty),
                from_bits: bits_of(from_ty),
                to_mask: mask_of(to_ty),
                val: self.value(val)?,
                dst,
            },
            Inst::Select {
                ty,
                cond,
                then_val,
                else_val,
            } => Op::Select {
                mask: mask_of(ty),
                cond: self.value(cond)?,
                then_val: self.value(then_val)?,
                else_val: self.value(else_val)?,
                dst,
            },
            Inst::Call { callee, args, .. } => {
                let srcs: Result<Vec<Src>, LowerError> =
                    args.iter().map(|a| self.value(a)).collect();
                let srcs = srcs?.into_boxed_slice();
                // Internal functions shadow host symbols, exactly like
                // the tree interpreter's dispatch order.
                if let Some(&idx) = self.func_index.get(callee.as_str()) {
                    Op::CallInternal {
                        func: idx,
                        args: srcs,
                        dst,
                    }
                } else if callee == GUARD_SYMBOL {
                    let (addr, size, flags) = self.lower_guard_operands(args)?;
                    Op::Guard {
                        site: self.site_of(iid),
                        addr,
                        size,
                        flags,
                    }
                } else if callee == INTRINSIC_GUARD_SYMBOL {
                    Op::IntrinsicGuard {
                        site: self.site_of(iid),
                        id: srcs.first().copied().unwrap_or(Src::Imm(u64::MAX)),
                    }
                } else {
                    Op::CallHost {
                        host: HostFn::resolve(callee),
                        args: srcs,
                        dst,
                    }
                }
            }
            Inst::Asm { .. } => Op::Asm,
        };
        self.code.push(op);
        Ok(())
    }

    /// Fuse `carat_guard(addr, size, flags)` immediately followed by a
    /// load/store into one superinstruction. Purely positional: the fused
    /// op replicates the exact two-instruction sequencing (fuel, guard
    /// dispatch, squash-flag handoff), so no operand matching is needed —
    /// even a guard protecting a *different* address fuses soundly.
    fn try_fuse(&mut self, guard: InstId, access: InstId) -> Result<bool, LowerError> {
        let Inst::Call { callee, args, .. } = self.f.inst(guard) else {
            return Ok(false);
        };
        if callee != GUARD_SYMBOL || self.func_index.contains_key(callee.as_str()) {
            return Ok(false);
        }
        let site = self.site_of(guard);
        let (gaddr, gsize, gflags) = self.lower_guard_operands(args)?;
        match self.f.inst(access) {
            Inst::Load { ty, ptr } => {
                self.code.push(Op::GuardLoad {
                    site,
                    gaddr,
                    gsize,
                    gflags,
                    size: ty.size_of(),
                    mask: mask_of(ty),
                    ptr: self.value(ptr)?,
                    dst: access.0,
                });
                Ok(true)
            }
            Inst::Store { ty, val, ptr } => {
                self.code.push(Op::GuardStore {
                    site,
                    gaddr,
                    gsize,
                    gflags,
                    size: ty.size_of(),
                    mask: mask_of(ty),
                    val: self.value(val)?,
                    ptr: self.value(ptr)?,
                });
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn lower_terminator(&mut self, bid: BlockId) -> Result<(), LowerError> {
        let term = self
            .f
            .block(bid)
            .term
            .as_ref()
            .ok_or_else(|| self.malformed(format!("block {} has no terminator", bid.0)))?
            .clone();
        let op = match term {
            Terminator::Br(succ) => Op::Jump(self.make_edge(bid, succ)?),
            Terminator::CondBr {
                cond,
                then_blk,
                else_blk,
            } => Op::CondJump {
                cond: self.value(&cond)?,
                then_edge: self.make_edge(bid, then_blk)?,
                else_edge: self.make_edge(bid, else_blk)?,
            },
            Terminator::Switch {
                ty,
                val,
                default,
                arms,
            } => {
                let mask = mask_of(&ty);
                let mut lowered = Vec::with_capacity(arms.len());
                for (c, succ) in &arms {
                    lowered.push((c & mask, self.make_edge(bid, *succ)?));
                }
                Op::SwitchJump {
                    mask,
                    val: self.value(&val)?,
                    arms: lowered.into_boxed_slice(),
                    default_edge: self.make_edge(bid, default)?,
                }
            }
            Terminator::Ret(None) => Op::Ret(None),
            Terminator::Ret(Some(v)) => Op::Ret(Some(self.value(&v)?)),
            Terminator::Unreachable => Op::Unreachable,
        };
        self.code.push(op);
        Ok(())
    }

    fn lower(&mut self) -> Result<CompiledFunc, LowerError> {
        let mut block_start = vec![0u32; self.f.blocks.len()];
        for bid in self.f.block_ids() {
            block_start[bid.0 as usize] = self.code.len() as u32;
            let phi_count = self.f.leading_phi_count(bid);
            let insts: Vec<InstId> = self.f.block(bid).insts[phi_count..].to_vec();
            let mut k = 0;
            while k < insts.len() {
                if let Some(&next) = insts.get(k + 1) {
                    if self.try_fuse(insts[k], next)? {
                        k += 2;
                        continue;
                    }
                }
                self.lower_inst(insts[k])?;
                k += 1;
            }
            self.lower_terminator(bid)?;
        }
        // Patch edge targets from block ids to code offsets.
        for e in &mut self.edges {
            e.target = block_start[e.target as usize];
        }
        Ok(CompiledFunc {
            name: self.f.name.clone(),
            n_params: self.f.params.len(),
            n_regs: self.f.inst_count(),
            has_blocks: self.f.entry().is_some(),
            code: std::mem::take(&mut self.code),
            edges: std::mem::take(&mut self.edges),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::parse_module;

    fn lower(src: &str) -> CompiledModule {
        let m = parse_module(src).unwrap();
        let mut globals = BTreeMap::new();
        for g in &m.globals {
            globals.insert(g.name.clone(), VAddr(0xffff_ffff_a100_0000));
        }
        let func_addrs = m
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    f.name.clone(),
                    VAddr(0xffff_ffff_a000_0000 + i as u64 * 0x100),
                )
            })
            .collect();
        lower_module(&m, &globals, &func_addrs, None).unwrap()
    }

    #[test]
    fn adjacent_guard_access_pairs_fuse() {
        let c = lower(
            r#"
module "m"
declare void @carat_guard(ptr, i64, i32)
define i64 @f(ptr %p) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  %v = load i64, ptr %p
  call void @carat_guard(ptr %p, i64 8, i32 2)
  store i64 %v, ptr %p
  ret i64 %v
}
"#,
        );
        assert_eq!(c.fused_guard_count(), 2);
        let f = c.func(c.func_index("f").unwrap());
        // Two fused ops + ret: three ops total, no standalone Guard.
        assert_eq!(f.code.len(), 3);
        assert!(matches!(f.code[0], Op::GuardLoad { .. }));
        assert!(matches!(f.code[1], Op::GuardStore { .. }));
        assert!(matches!(f.code[2], Op::Ret(Some(Src::Reg(_)))));
    }

    #[test]
    fn hoisted_guard_stays_standalone() {
        let c = lower(
            r#"
module "m"
declare void @carat_guard(ptr, i64, i32)
define void @f(ptr %p, i64 %v) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 2)
  %x = add i64 %v, 1
  store i64 %x, ptr %p
  ret void
}
"#,
        );
        assert_eq!(c.fused_guard_count(), 0);
        let f = c.func(0);
        assert!(matches!(f.code[0], Op::Guard { .. }));
        assert!(matches!(f.code[2], Op::Store { .. }));
    }

    #[test]
    fn phi_edges_carry_moves_and_burn() {
        let c = lower(
            r#"
module "m"
define i64 @sum(i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  br %head
exit:
  ret i64 %acc
}
"#,
        );
        let f = c.func(c.func_index("sum").unwrap());
        // entry→head and body→head both carry 2 moves and burn 2.
        let phi_edges: Vec<&Edge> = f.edges.iter().filter(|e| e.phi_burn == 2).collect();
        assert_eq!(phi_edges.len(), 2);
        for e in &phi_edges {
            assert_eq!(e.moves.len(), 2);
        }
        // Neither edge reads a register the schedule writes (%i2/%acc2
        // are plain adds): both write directly, no staging cost.
        assert!(phi_edges.iter().all(|e| !e.staged));
    }

    #[test]
    fn swapping_phis_force_staged_parallel_moves() {
        let c = lower(
            r#"
module "m"
define i64 @swap(i64 %n) {
entry:
  br %head
head:
  %a = phi i64 [ 1, %entry ], [ %b, %head ]
  %b = phi i64 [ 2, %entry ], [ %a, %head ]
  %c = icmp ult i64 %a, %n
  condbr i1 %c, %head, %exit
exit:
  ret i64 %b
}
"#,
        );
        let f = c.func(0);
        let back_edge = f
            .edges
            .iter()
            .find(|e| e.moves.iter().any(|m| matches!(m.src, Src::Reg(_))))
            .expect("back edge with register moves");
        // %a←%b while %b←%a: the parallel assignment must stage reads.
        assert!(back_edge.staged);
    }

    #[test]
    fn gep_constants_fold_into_offset() {
        let c = lower(
            r#"
module "m"
define ptr @f(ptr %ring, i64 %i) {
entry:
  %p = gep { i64, i32, i32 }, ptr %ring, i64 %i, i32 2
  %q = gep i8, ptr %ring, i64 24
  ret ptr %p
}
"#,
        );
        let f = c.func(0);
        // %p: one dynamic term (16 * %i) + folded field offset 12.
        let Op::Gep { offset, terms, .. } = &f.code[0] else {
            panic!("expected gep, got {:?}", f.code[0]);
        };
        assert_eq!(*offset, 12);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].0, 16);
        // %q: fully constant — no dynamic terms at all.
        let Op::Gep { offset, terms, .. } = &f.code[1] else {
            panic!("expected gep, got {:?}", f.code[1]);
        };
        assert_eq!(*offset, 24);
        assert!(terms.is_empty());
    }

    #[test]
    fn callees_resolve_to_internal_host_or_unresolved() {
        let c = lower(
            r#"
module "m"
declare void @printk(i64)
declare void @mystery(i64)
define void @leaf(i64 %x) {
entry:
  ret void
}
define void @f() {
entry:
  call void @leaf(i64 1)
  call void @printk(i64 2)
  call void @mystery(i64 3)
  ret void
}
"#,
        );
        let f = c.func(c.func_index("f").unwrap());
        assert!(matches!(f.code[0], Op::CallInternal { func, .. }
            if c.func(func).name == "leaf"));
        assert!(matches!(
            &f.code[1],
            Op::CallHost {
                host: HostFn::Printk,
                ..
            }
        ));
        assert!(
            matches!(&f.code[2], Op::CallHost { host: HostFn::Unresolved(n), .. }
            if &**n == "mystery")
        );
    }

    #[test]
    fn edge_targets_resolve_to_code_offsets() {
        let c = lower(
            r#"
module "m"
define i64 @f(i64 %x) {
entry:
  %c = icmp eq i64 %x, 0
  condbr i1 %c, %a, %b
a:
  ret i64 1
b:
  ret i64 2
}
"#,
        );
        let f = c.func(0);
        let Op::CondJump {
            then_edge,
            else_edge,
            ..
        } = f.code[1]
        else {
            panic!("expected condjump");
        };
        // entry = ops [0,1]; a = op 2; b = op 3.
        assert_eq!(f.edges[then_edge as usize].target, 2);
        assert_eq!(f.edges[else_edge as usize].target, 3);
        assert!(matches!(f.code[2], Op::Ret(Some(Src::Imm(1)))));
        assert!(matches!(f.code[3], Op::Ret(Some(Src::Imm(2)))));
    }
}
