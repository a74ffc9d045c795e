//! Bytecode executor: the dispatch loop for `kop-vm`'s flat register
//! programs, compiled once at insmod and cached in the loaded-module
//! image. Every call runs the module's one program: one arm per op
//! shape, where a memory guard whose site the call's promoted tier
//! holds a grant for admits inline or deopts, and any other consults
//! the policy.
//!
//! Everything observable — fuel accounting, squash ordering, masking,
//! error messages, stats, trace events — matches the reference tree
//! walker in `lib.rs` exactly; the root crate's differential property
//! tests hold the engines to that. The win is purely dispatch cost:
//! operands are pre-resolved registers/immediates, branch targets are
//! code offsets, phi transfers are prebuilt move schedules, and
//! adjacent guard+access pairs run as one fused superinstruction.

use std::sync::Arc;

use kop_core::{AccessFlags, KernelError, KernelResult, Size, VAddr};
use kop_ir::{BinOp, CastOp, IcmpPred};
use kop_trace::SiteId;
use kop_vm::{CompiledFunc, CompiledModule, Op, PromotedTier, Src};

use crate::{sign_extend, Engine, Interp, ModuleCtx, MAX_CALL_DEPTH};

impl<'k> Interp<'k> {
    /// Bytecode-engine entry point, mirroring the tree engine's
    /// `call_in` contract (same error precedence and messages). On the
    /// promoted engine this is where the call settles its promoted tier:
    /// once, so every guard of the call finds its grant in the same tier
    /// by reference. Any tier but the empty one runs, and its grants
    /// admit only at the generation they were baked at, which no other
    /// policy has; pinning the call's policy here is what lets inline
    /// guards read its generation instead of resolving it.
    pub(crate) fn vm_call(
        &mut self,
        ctx: &ModuleCtx,
        func: &str,
        args: &[u64],
    ) -> KernelResult<Option<u64>> {
        let compiled = &ctx.compiled;
        let idx = compiled.func_index(func).ok_or_else(|| {
            KernelError::InvalidArgument(format!("no function @{func} in module {}", ctx.ir.name))
        })?;
        let tier = (self.engine == Engine::Promoted).then(|| self.vm_take_tier(compiled));
        let run = tier.as_deref().filter(|t| t.gen != 0);
        if run.is_some() {
            self.vm_policy.pin(self.kernel, &ctx.ir.name);
        }
        let mut argv = self.vm_args_pool.pop().unwrap_or_default();
        argv.clear();
        argv.extend_from_slice(args);
        let result = self.vm_call_idx(ctx, compiled, run, idx, argv);
        self.vm_tier = tier;
        result
    }

    /// `compiled`'s current promoted tier, moved out of the interpreter
    /// for the running call: the kept tier when the module's tier id
    /// still reads the id it was loaded under (one load), a fresh load
    /// when a promotion or invalidation moved it. The id is read before
    /// the tier, so a tier published after the read moves the id again
    /// and the next call reloads.
    fn vm_take_tier(&mut self, compiled: &CompiledModule) -> Arc<PromotedTier> {
        let id = compiled.tier_id();
        match self.vm_tier.take() {
            Some(tier) if self.vm_tier_id == id => tier,
            _ => {
                self.vm_tier_id = id;
                compiled.promoted_tier()
            }
        }
    }

    /// One function frame by prebuilt index (recursion happens through
    /// [`Op::CallInternal`], skipping the name lookup entirely).
    /// Takes `args` by value: callers hand over a pooled vector, which
    /// retires back into the pool on exit. `tier` is the promoted tier
    /// the call runs (`None` off the promoted engine, or when the tier is
    /// the empty one).
    fn vm_call_idx(
        &mut self,
        ctx: &ModuleCtx,
        compiled: &CompiledModule,
        tier: Option<&PromotedTier>,
        idx: u32,
        args: Vec<u64>,
    ) -> KernelResult<Option<u64>> {
        // A frame of a call that runs a tier, entered with tracing on,
        // tallies each inline admit per site into the interpreter's
        // profile shard, so per-site hits still reconcile with the guard
        // count; a deopt takes the full traced general path. Decided
        // once per frame, so an admit tests a local flag, not the tracer.
        let traced = tier.is_some() && self.kernel.tracer().enabled();
        let cf = compiled.func(idx);
        if cf.n_params != args.len() {
            return Err(KernelError::InvalidArgument(format!(
                "@{} takes {} args, got {}",
                cf.name,
                cf.n_params,
                args.len()
            )));
        }
        if !cf.has_blocks {
            return Err(KernelError::InvalidArgument(format!(
                "@{} has no blocks",
                cf.name
            )));
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(KernelError::NoMemory(format!(
                "kernel stack overflow: module call depth exceeds {MAX_CALL_DEPTH}"
            )));
        }
        self.depth += 1;
        let saved_args = std::mem::replace(&mut self.cur_args, args);
        let saved_stack = self.stack_cursor;
        let mut regs = self.vm_frames.pop().unwrap_or_default();
        regs.clear();
        regs.resize(cf.n_regs, 0);
        let result = self.vm_run(ctx, compiled, tier, traced, cf, &mut regs);
        self.vm_frames.push(regs);
        self.stack_cursor = saved_stack;
        let retired = std::mem::replace(&mut self.cur_args, saved_args);
        self.vm_args_pool.push(retired);
        self.depth -= 1;
        result
    }

    /// Pre-resolved operand read — the bytecode replacement for the
    /// tree's per-use `Value` pattern match.
    #[inline]
    fn vm_src(&self, regs: &[u64], s: Src) -> u64 {
        match s {
            Src::Reg(r) => regs[r as usize],
            Src::Arg(i) => self.cur_args[i as usize],
            Src::Imm(v) => v,
        }
    }

    /// Drain the call's fast admits into its pinned policy's
    /// `checks`/`permitted` counters with one counted add.
    /// [`Interp::call`] runs it once, where the call returns, on `Ok` and
    /// `Err` alike; the policy is pinned for the whole call, so the count
    /// lands on the policy it was accumulated against.
    #[inline]
    pub(crate) fn vm_flush_fast_permits(&mut self) {
        if self.vm_pending_fast_permits > 0 {
            let n = self.vm_pending_fast_permits;
            self.vm_pending_fast_permits = 0;
            self.vm_policy.pinned().record_fast_permits(n);
        }
    }

    /// A memory guard. A site the call's tier holds a grant for admits
    /// inline when the grant admits the access
    /// ([`kop_core::Grant::admits`]) against the pinned policy's live
    /// generation; otherwise it deopts into the exact general policy
    /// path with the same operands. Any other site takes that path and
    /// counts no deopt.
    ///
    /// The generation is read per op, so a publish that lands mid-call
    /// deopts the very next inline guard. The fast admit still counts as
    /// a guard and as a policy check (batched: `vm_pending_fast_permits`,
    /// drained when the call returns), so every reconciliation invariant
    /// — `stats.guards == policy.checks` — survives promotion; in a
    /// `traced` frame it is also tallied against its site in the
    /// interpreter's profile shard (hits and envelope, no events, no
    /// timing). A degenerate request (zero size, empty flags, wrapping
    /// range) never admits; the general path owns the malformed-input
    /// verdicts.
    ///
    /// The admit is written here rather than in a helper of its own: out
    /// of line, the release build stopped inlining it into the dispatch
    /// loop, and an always-inlined helper grew the debug build's
    /// recursive frames past the test thread's stack.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn vm_guard(
        &mut self,
        ctx: &ModuleCtx,
        regs: &[u64],
        tier: Option<&PromotedTier>,
        traced: bool,
        site: Option<SiteId>,
        addr: Src,
        size: Src,
        flags: Src,
    ) -> KernelResult<()> {
        let addr = VAddr(self.vm_src(regs, addr));
        let size = Size(self.vm_src(regs, size));
        let flags = AccessFlags::from_raw(self.vm_src(regs, flags) as u32);
        if let Some((s, grant)) = site.and_then(|s| Some((s, tier?.grant(s)?))) {
            let live = self.vm_policy.pinned().store_generation();
            if grant.admits(live, addr, size, flags) {
                self.stats.guards += 1;
                self.vm_pending_fast_permits += 1;
                self.vm_inline_admits += 1;
                if traced {
                    self.vm_profile.admit(s, addr.raw(), size.raw());
                }
                return Ok(());
            }
            self.vm_inline_deopts += 1;
        }
        self.run_mem_guard(&ctx.ir.name, addr, size, flags, site)
    }

    /// The access body of [`Op::Load`] and [`Op::GuardLoad`]: a load the
    /// preceding guard squashed yields 0.
    #[inline(always)]
    fn vm_load(
        &mut self,
        regs: &mut [u64],
        size: u64,
        mask: u64,
        ptr: Src,
        dst: u32,
    ) -> KernelResult<()> {
        self.stats.mem_accesses += 1;
        let addr = VAddr(self.vm_src(regs, ptr));
        if std::mem::take(&mut self.squash_next) {
            self.stats.squashed += 1;
            regs[dst as usize] = 0;
        } else {
            let v = self.kernel.mem.read_uint(addr, Size(size))?;
            regs[dst as usize] = mask & v;
        }
        Ok(())
    }

    /// The access body of [`Op::Store`] and [`Op::GuardStore`]: a store
    /// the preceding guard squashed is dropped.
    #[inline(always)]
    fn vm_store(
        &mut self,
        regs: &[u64],
        size: u64,
        mask: u64,
        val: Src,
        ptr: Src,
    ) -> KernelResult<()> {
        self.stats.mem_accesses += 1;
        let addr = VAddr(self.vm_src(regs, ptr));
        let v = mask & self.vm_src(regs, val);
        if std::mem::take(&mut self.squash_next) {
            self.stats.squashed += 1;
        } else {
            self.kernel.mem.write_uint(addr, Size(size), v)?;
        }
        Ok(())
    }

    /// Traverse a control-flow edge: execute its phi move schedule,
    /// charge the successor's phi fuel, return the target code offset.
    /// Conflict-free edges write registers directly; edges whose
    /// parallel moves interfere stage all reads first (same semantics
    /// as the tree's staged phi evaluation).
    fn vm_edge(&mut self, cf: &CompiledFunc, regs: &mut [u64], edge: u32) -> KernelResult<usize> {
        let e = &cf.edges[edge as usize];
        if e.staged {
            self.vm_scratch.clear();
            for m in e.moves.iter() {
                let v = m.mask & self.vm_src(regs, m.src);
                self.vm_scratch.push(v);
            }
            for (i, m) in e.moves.iter().enumerate() {
                regs[m.dst as usize] = self.vm_scratch[i];
            }
        } else {
            for m in e.moves.iter() {
                regs[m.dst as usize] = m.mask & self.vm_src(regs, m.src);
            }
        }
        if e.phi_burn > 0 {
            self.burn(e.phi_burn as u64)?;
        }
        Ok(e.target as usize)
    }

    /// The dispatch loop. `pc` indexes `cf.code`; every op charges one
    /// fuel unit up front (fused guard-access ops charge a second for
    /// the access, preserving the tree's per-IR-instruction fuel
    /// checkpoints). `traced` is set for a frame of a call that runs a
    /// tier, entered with tracing on (see [`Self::vm_guard`]); traced and
    /// untraced frames run this one loop.
    fn vm_run(
        &mut self,
        ctx: &ModuleCtx,
        compiled: &CompiledModule,
        tier: Option<&PromotedTier>,
        traced: bool,
        cf: &CompiledFunc,
        regs: &mut [u64],
    ) -> KernelResult<Option<u64>> {
        let mut pc: usize = 0;

        loop {
            self.burn(1)?;
            let op = &cf.code[pc];
            pc += 1;
            match op {
                Op::Alloca { size, align, dst } => {
                    self.stack_cursor = self.stack_cursor.div_ceil(*align) * align;
                    if self.stack_cursor + size > self.stack_size {
                        return Err(KernelError::NoMemory("module stack overflow".into()));
                    }
                    let addr = self.stack_base.raw() + self.stack_cursor;
                    self.stack_cursor += size;
                    regs[*dst as usize] = addr;
                }
                Op::Load {
                    size,
                    mask,
                    ptr,
                    dst,
                } => self.vm_load(regs, *size, *mask, *ptr, *dst)?,
                Op::Store {
                    size,
                    mask,
                    val,
                    ptr,
                } => self.vm_store(regs, *size, *mask, *val, *ptr)?,
                Op::GuardLoad {
                    site,
                    gaddr,
                    gsize,
                    gflags,
                    size,
                    mask,
                    ptr,
                    dst,
                } => {
                    self.vm_guard(ctx, regs, tier, traced, *site, *gaddr, *gsize, *gflags)?;
                    self.burn(1)?;
                    self.vm_load(regs, *size, *mask, *ptr, *dst)?;
                }
                Op::GuardStore {
                    site,
                    gaddr,
                    gsize,
                    gflags,
                    size,
                    mask,
                    val,
                    ptr,
                } => {
                    self.vm_guard(ctx, regs, tier, traced, *site, *gaddr, *gsize, *gflags)?;
                    self.burn(1)?;
                    self.vm_store(regs, *size, *mask, *val, *ptr)?;
                }
                Op::Gep {
                    base,
                    offset,
                    terms,
                    dst,
                } => {
                    let mut addr = self.vm_src(regs, *base).wrapping_add(*offset);
                    for (scale, idx) in terms.iter() {
                        addr = addr.wrapping_add(scale.wrapping_mul(self.vm_src(regs, *idx)));
                    }
                    regs[*dst as usize] = addr;
                }
                Op::Bin {
                    op,
                    mask,
                    bits,
                    lhs,
                    rhs,
                    dst,
                } => {
                    let a = mask & self.vm_src(regs, *lhs);
                    let b = mask & self.vm_src(regs, *rhs);
                    let bits = *bits;
                    let r = match op {
                        BinOp::Add => a.wrapping_add(b),
                        BinOp::Sub => a.wrapping_sub(b),
                        BinOp::Mul => a.wrapping_mul(b),
                        BinOp::UDiv | BinOp::URem | BinOp::SDiv | BinOp::SRem if b == 0 => {
                            return Err(KernelError::Fault {
                                addr: VAddr::NULL,
                                what: format!("division by zero in @{}", cf.name),
                            });
                        }
                        BinOp::UDiv => a / b,
                        BinOp::URem => a % b,
                        BinOp::SDiv => {
                            sign_extend(a, bits).wrapping_div(sign_extend(b, bits)) as u64
                        }
                        BinOp::SRem => {
                            sign_extend(a, bits).wrapping_rem(sign_extend(b, bits)) as u64
                        }
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Xor => a ^ b,
                        BinOp::Shl => a.wrapping_shl((b % bits as u64) as u32),
                        BinOp::LShr => a.wrapping_shr((b % bits as u64) as u32),
                        BinOp::AShr => (sign_extend(a, bits) >> (b % bits as u64)) as u64,
                    };
                    regs[*dst as usize] = mask & r;
                }
                Op::Icmp {
                    pred,
                    mask,
                    bits,
                    lhs,
                    rhs,
                    dst,
                } => {
                    let a = mask & self.vm_src(regs, *lhs);
                    let b = mask & self.vm_src(regs, *rhs);
                    let (sa, sb) = (sign_extend(a, *bits), sign_extend(b, *bits));
                    let r = match pred {
                        IcmpPred::Eq => a == b,
                        IcmpPred::Ne => a != b,
                        IcmpPred::Ult => a < b,
                        IcmpPred::Ule => a <= b,
                        IcmpPred::Ugt => a > b,
                        IcmpPred::Uge => a >= b,
                        IcmpPred::Slt => sa < sb,
                        IcmpPred::Sle => sa <= sb,
                        IcmpPred::Sgt => sa > sb,
                        IcmpPred::Sge => sa >= sb,
                    };
                    regs[*dst as usize] = r as u64;
                }
                Op::Cast {
                    op,
                    from_mask,
                    from_bits,
                    to_mask,
                    val,
                    dst,
                } => {
                    let v = from_mask & self.vm_src(regs, *val);
                    let r = match op {
                        CastOp::Zext | CastOp::PtrToInt | CastOp::IntToPtr => v,
                        CastOp::Trunc => to_mask & v,
                        CastOp::Sext => to_mask & (sign_extend(v, *from_bits) as u64),
                    };
                    regs[*dst as usize] = r;
                }
                Op::Select {
                    mask,
                    cond,
                    then_val,
                    else_val,
                    dst,
                } => {
                    let c = self.vm_src(regs, *cond) & 1;
                    let v = if c == 1 {
                        self.vm_src(regs, *then_val)
                    } else {
                        self.vm_src(regs, *else_val)
                    };
                    regs[*dst as usize] = mask & v;
                }
                Op::CallInternal { func, args, dst } => {
                    let mut argv = self.vm_args_pool.pop().unwrap_or_default();
                    argv.clear();
                    argv.extend(args.iter().map(|a| self.vm_src(regs, *a)));
                    if let Some(v) = self.vm_call_idx(ctx, compiled, tier, *func, argv)? {
                        regs[*dst as usize] = v;
                    }
                }
                Op::CallHost { host, args, dst } => {
                    let mut argv = self.vm_args_pool.pop().unwrap_or_default();
                    argv.clear();
                    argv.extend(args.iter().map(|a| self.vm_src(regs, *a)));
                    let r = self.host_call(host, &argv);
                    self.vm_args_pool.push(argv);
                    if let Some(v) = r? {
                        regs[*dst as usize] = v;
                    }
                }
                Op::Guard {
                    site,
                    addr,
                    size,
                    flags,
                } => self.vm_guard(ctx, regs, tier, traced, *site, *addr, *size, *flags)?,
                Op::IntrinsicGuard { site, id } => {
                    let id = self.vm_src(regs, *id) as u32;
                    self.run_intrinsic_guard(&ctx.ir.name, id, *site)?;
                }
                Op::Asm => {
                    return Err(KernelError::Fault {
                        addr: VAddr::NULL,
                        what: format!("inline assembly executed in @{}", cf.name),
                    });
                }
                Op::Jump(edge) => {
                    pc = self.vm_edge(cf, regs, *edge)?;
                }
                Op::CondJump {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    let c = self.vm_src(regs, *cond) & 1;
                    let e = if c == 1 { *then_edge } else { *else_edge };
                    pc = self.vm_edge(cf, regs, e)?;
                }
                Op::SwitchJump {
                    mask,
                    val,
                    arms,
                    default_edge,
                } => {
                    let v = mask & self.vm_src(regs, *val);
                    let e = arms
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, e)| *e)
                        .unwrap_or(*default_edge);
                    pc = self.vm_edge(cf, regs, e)?;
                }
                Op::Ret(None) => return Ok(None),
                Op::Ret(Some(v)) => return Ok(Some(self.vm_src(regs, *v))),
                Op::Unreachable => {
                    return Err(KernelError::Fault {
                        addr: VAddr::NULL,
                        what: format!("unreachable executed in @{}", cf.name),
                    });
                }
            }
        }
    }
}
