//! # kop-interp — executing KIR modules inside the simulated kernel
//!
//! This is the runtime half of the end-to-end CARAT KOP story: a loaded
//! module's functions execute against the kernel's simulated memory, and
//! the compiler-injected `carat_guard` calls dispatch into the policy
//! module. A failing guard behaves per the configured
//! [`kop_policy::ViolationAction`]:
//!
//! * `Panic` — the paper's behaviour: the violation is logged and the
//!   (simulated) kernel panics; execution aborts.
//! * `LogAndDeny` — the following memory access is *squashed* ("something
//!   similar to a page fault", §2): a squashed load yields 0, a squashed
//!   store is dropped.
//! * `LogAndAllow` — audit mode; the access proceeds.
//! * `Quarantine` — the access is squashed *and* the violation is charged
//!   against the module's budget ([`kop_kernel::VIOLATION_BUDGET`]);
//!   when the budget is exhausted the kernel unloads
//!   only the offending module and the call unwinds with
//!   `KernelError::ModuleQuarantined` — the kernel itself keeps running.
//!
//! The interpreter also hosts the tiny kernel ABI modules may import:
//! `printk(i64)`, `kmalloc(i64) -> ptr`, `kfree(ptr)`, `panic(i64)`.

#![warn(missing_docs)]

use std::sync::Arc;

use kop_core::{AccessFlags, KernelError, KernelResult, Size, VAddr};
use kop_ir::{BinOp, BlockId, CastOp, IcmpPred, Inst, Terminator, Type, Value};
use kop_kernel::{Kernel, ModuleImage};
use kop_policy::module::GuardOutcome;
use kop_policy::PolicyModule;
use kop_trace::{GuardDecision, Producer, ProfileShard, SiteId};
use kop_vm::{HostFn, PromotedTier};

mod vm;

/// Which executor [`Interp::call`] runs module code on.
///
/// All three implement identical observable semantics — return values,
/// [`ExecStats`] (including fuel accounting), guard outcomes, squash
/// behaviour, trace events, error messages — which the root crate's
/// differential property tests enforce. Production runs
/// [`Engine::Promoted`], the default; the other two are references,
/// selected only through [`Interp::set_engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference tree walker: re-walks the IR per instruction. The
    /// oracle of the engine, opt and jit differential suites.
    Tree,
    /// The general bytecode `kop-vm` compiled at insmod, with the
    /// promoted tier off: the tier-off reference for the promoted
    /// engine and for benchmarks' unguarded baselines.
    Bytecode,
    /// The production engine: the bytecode with the promoted tier on.
    /// The program is the same one [`Engine::Bytecode`] runs; a memory
    /// guard whose site the tier holds a grant for admits by that grant,
    /// tracing on or off, and every other guard consults the policy.
    /// The interpreter keeps the tier it loaded across calls, keyed by
    /// the module's never-reused tier id: each [`Interp::call`] checks
    /// the id with one load, reloads the tier only if a promotion or
    /// invalidation moved it, and answers every guard of the call from
    /// that one tier, so a tier published between calls governs the next
    /// call and one published mid-call reaches the call after. A policy
    /// publish or swap moves no tier: a promoted guard compares its
    /// grant's generation with the call's policy's live one per op, and
    /// one that no longer matches (generations are process-wide, so a
    /// grant baked from one policy never matches another), or that
    /// cannot fast-admit, deopts into the exact general policy path. The
    /// generation is the tier's only invalidation. With tracing on, an
    /// inline admit is counted against its site (hits and address
    /// envelope, in the interpreter's profile shard) but emits no ring
    /// events and is not timed; a deopt takes the general path's traced
    /// check like any general-path guard: it is counted, and timed with a
    /// GuardEnter/GuardExit pair when it is the first of every
    /// [`kop_trace::SAMPLE_EVERY`] general-path checks of its site, or
    /// follows a denial there.
    #[default]
    Promoted,
}

/// Execution statistics accumulated across `call`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed (including terminators).
    pub insts: u64,
    /// Dynamic guard calls executed.
    pub guards: u64,
    /// Dynamic loads + stores executed (including squashed ones).
    pub mem_accesses: u64,
    /// Accesses squashed by a denying guard.
    pub squashed: u64,
}

/// The interpreter. Borrows the kernel mutably for the duration of a run —
/// module code *is* kernel code in a monolithic kernel.
pub struct Interp<'k> {
    kernel: &'k mut Kernel,
    fuel: u64,
    stack_base: VAddr,
    stack_size: u64,
    stack_cursor: u64,
    stats: ExecStats,
    squash_next: bool,
    squash_intrinsic: bool,
    cur_args: Vec<u64>,
    depth: u32,
    engine: Engine,
    /// Reusable staging buffer for conflicting phi-edge moves (bytecode
    /// engine only; used transiently within one edge).
    vm_scratch: Vec<u64>,
    /// Retired register frames, reused across bytecode calls so the hot
    /// path never allocates.
    vm_frames: Vec<Vec<u64>>,
    /// Retired argument vectors, same purpose.
    vm_args_pool: Vec<Vec<u64>>,
    /// Guards admitted by a tier's grant (promoted engine only).
    /// Kept off [`ExecStats`] so stats stay engine-identical for the
    /// differential tests.
    vm_inline_admits: u64,
    /// Promoted guards that fell back to the general policy path
    /// (generation bump, out-of-bounds, or permission miss).
    vm_inline_deopts: u64,
    /// The policy governing the running call's module, on every engine:
    /// revalidated where a call with a promoted tier starts, or on the
    /// call's first general-path memory or intrinsic guard
    /// ([`PolicyPin`]), and kept past the call's return. Sound for the
    /// call's duration: remapping a module's policy
    /// (`set_module_policy`/`clear_module_policy`) needs `&mut Kernel`,
    /// which this interpreter holds exclusively, and
    /// the one in-run mutation path (quarantine) unwinds the call before
    /// another guard executes. A swap through the shared
    /// `NamespaceStore` from another thread moves the store's version,
    /// so it takes effect at the next call. A promoted grant baked
    /// before a publish of the pinned policy, or from another policy, is
    /// caught per op by the generation tag: no two snapshots share one.
    vm_policy: PolicyPin,
    /// The promoted tier the last promoted call ran, with the tier id it
    /// was loaded under. Taken out for the duration of a call (so frames
    /// borrow it without a refcount) and put back where the call
    /// returns; reloaded only when the module's tier id moved.
    vm_tier: Option<Arc<PromotedTier>>,
    /// The tier id `vm_tier` was loaded under.
    vm_tier_id: u64,
    /// Fast admits not yet accounted against `vm_policy`'s striped
    /// `checks`/`permitted` counters. The inline admit bumps this plain
    /// field; the call's return drains it with one counted add
    /// (`record_fast_permits`), on `Ok` and `Err` alike, so the
    /// per-guard cost carries no thread-local counter round-trips and
    /// every post-call observer still sees `policy.checks ==
    /// stats.guards`. Non-zero only while `vm_policy` is pinned.
    vm_pending_fast_permits: u64,
    /// This interpreter's shard of the kernel tracer's per-site profile.
    /// Every traced guard of every engine tallies into it with no lock:
    /// a general-path check through [`ProfileShard::traced_check`]
    /// (which times one in [`kop_trace::SAMPLE_EVERY`] per site), an
    /// inline admit of a traced frame
    /// (one that runs a tier, entered with tracing on) through
    /// [`ProfileShard::admit`]. Readers of the tracer merge it while the
    /// interpreter lives, so per-site hits reconcile with `stats.guards`
    /// at any point between calls, and nothing drains at call return.
    /// Registered on the first traced guard; dropping the interpreter
    /// folds it into the tracer's retired totals.
    vm_profile: ProfileShard,
}

const DEFAULT_FUEL: u64 = 50_000_000;
const STACK_SIZE: u64 = 1 << 20;
/// Maximum module call depth — kernel stacks are small (two 4 KiB pages
/// on Linux); unbounded module recursion is a bug this models as a stack
/// overflow rather than letting it take down the host.
const MAX_CALL_DEPTH: u32 = 200;

fn mask(ty: &Type, v: u64) -> u64 {
    match ty.int_bits() {
        Some(64) | None => v,
        Some(bits) => v & ((1u64 << bits) - 1),
    }
}

fn sign_extend(v: u64, bits: u32) -> i64 {
    if bits == 64 {
        return v as i64;
    }
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

/// Per-call module context: the loader's shared [`ModuleImage`] (IR +
/// layout addresses + guard-site table). Entering module code clones one
/// `Arc`, nothing else.
type ModuleCtx = ModuleImage;

/// The policy governing the running call's module, kept across calls
/// and keyed by the module's IR name and the namespace store's version
/// (`NamespaceStore::version`), which moves after every register and
/// remove. The interpreter's one policy resolution point. A field of its
/// own, so the caller can keep borrowing the kernel's tracer.
#[derive(Default)]
struct PolicyPin {
    policy: Option<Arc<PolicyModule>>,
    module: String,
    version: u64,
    /// Whether the running call has revalidated `policy`.
    fresh: bool,
}

impl PolicyPin {
    /// The policy governing `module` for the running call: revalidated
    /// on the call's first use with one version load, and re-resolved
    /// only if the module or the version changed since it was resolved.
    #[inline]
    fn pin(&mut self, kernel: &Kernel, module: &str) -> &PolicyModule {
        if !self.fresh {
            self.revalidate(kernel, module);
        }
        self.pinned()
    }

    fn revalidate(&mut self, kernel: &Kernel, module: &str) {
        // Version first: a register or remove that lands after this load
        // moves the version again, so the next call re-resolves.
        let version = kernel.namespaces().version();
        if self.policy.is_none() || self.version != version || self.module != module {
            self.policy = Some(kernel.policy_for(module));
            self.version = version;
            module.clone_into(&mut self.module);
        }
        self.fresh = true;
    }

    /// The policy the running call pinned.
    #[inline]
    fn pinned(&self) -> &PolicyModule {
        self.policy.as_deref().expect("the call pinned its policy")
    }
}

impl<'k> Interp<'k> {
    /// Create an interpreter with default fuel on the production engine.
    /// Allocates the module stack from the kernel heap.
    pub fn new(kernel: &'k mut Kernel) -> KernelResult<Interp<'k>> {
        let stack_base = kernel.kmalloc(STACK_SIZE)?;
        Ok(Interp::with_stack(kernel, stack_base))
    }

    /// Create an interpreter on a caller-owned module stack of
    /// [`Interp::stack_size`] bytes. The kernel heap is a bump allocator,
    /// so long-lived harnesses that construct many short-lived
    /// interpreters (one per supervision round, say) must allocate the
    /// stack once — via one [`Interp::new`] and [`Interp::stack_base`] —
    /// and thread it through here instead of kmallocing per round.
    pub fn with_stack(kernel: &'k mut Kernel, stack_base: VAddr) -> Interp<'k> {
        let vm_profile = ProfileShard::new(Arc::clone(kernel.tracer()));
        Interp {
            kernel,
            fuel: DEFAULT_FUEL,
            stack_base,
            stack_size: STACK_SIZE,
            stack_cursor: 0,
            stats: ExecStats::default(),
            squash_next: false,
            squash_intrinsic: false,
            cur_args: Vec::new(),
            depth: 0,
            engine: Engine::default(),
            vm_scratch: Vec::new(),
            vm_frames: Vec::new(),
            vm_args_pool: Vec::new(),
            vm_inline_admits: 0,
            vm_inline_deopts: 0,
            vm_policy: PolicyPin::default(),
            vm_tier: None,
            vm_tier_id: 0,
            vm_pending_fast_permits: 0,
            vm_profile,
        }
    }

    /// Base of this interpreter's module stack (pass to
    /// [`Interp::with_stack`] to reuse the allocation).
    pub fn stack_base(&self) -> VAddr {
        self.stack_base
    }

    /// Size in bytes of the module stack backing an interpreter.
    pub fn stack_size(&self) -> u64 {
        self.stack_size
    }

    /// Limit the number of executed instructions (tests / runaway modules).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Select the execution engine (defaults to [`Engine::Promoted`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The engine [`Interp::call`] currently dispatches to.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Statistics from calls so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Guards admitted by a tier's grant since construction (promoted
    /// engine only; 0 on the other engines).
    pub fn inline_admits(&self) -> u64 {
        self.vm_inline_admits
    }

    /// Promoted guards that deopted to the general policy path since
    /// construction (generation bump, bounds, or permission miss).
    pub fn inline_deopts(&self) -> u64 {
        self.vm_inline_deopts
    }

    /// The kernel being driven.
    pub fn kernel(&mut self) -> &mut Kernel {
        self.kernel
    }

    /// Call `func` in loaded module `module_name` with integer/pointer
    /// arguments. Returns the function's return value, if any.
    pub fn call(
        &mut self,
        module_name: &str,
        func: &str,
        args: &[u64],
    ) -> KernelResult<Option<u64>> {
        self.kernel.check_alive()?;
        let loaded = self
            .kernel
            .module(module_name)
            .ok_or_else(|| KernelError::NoSuchModule(module_name.to_string()))?;
        // One refcount bump detaches the module context from the kernel
        // borrow — no per-call deep clone of the IR or layout maps.
        let image = Arc::clone(loaded.image());
        let result = match self.engine {
            Engine::Tree => self.call_in(&image, func, args),
            // The promoted engine is the bytecode engine with the call's
            // promoted tier loaded at entry (see `vm_call`).
            Engine::Bytecode | Engine::Promoted => self.vm_call(&image, func, args),
        };
        // The call is the unit of accounting: its fast admits drain here,
        // on `Ok` and `Err` alike, against the policy it pinned. The
        // policy stays resolved for the next call, which revalidates it
        // on first use.
        self.vm_flush_fast_permits();
        self.vm_policy.fresh = false;
        result
    }

    fn burn(&mut self, n: u64) -> KernelResult<()> {
        self.stats.insts += n;
        if self.fuel < n {
            return Err(KernelError::Fault {
                addr: VAddr::NULL,
                what: "interpreter fuel exhausted".into(),
            });
        }
        self.fuel -= n;
        Ok(())
    }

    /// Execute one function frame (recursion happens through
    /// [`Self::dispatch_call`]).
    fn call_in(&mut self, ctx: &ModuleCtx, func: &str, args: &[u64]) -> KernelResult<Option<u64>> {
        let f = ctx.ir.function(func).ok_or_else(|| {
            KernelError::InvalidArgument(format!("no function @{func} in module {}", ctx.ir.name))
        })?;
        if f.params.len() != args.len() {
            return Err(KernelError::InvalidArgument(format!(
                "@{func} takes {} args, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let entry = f
            .entry()
            .ok_or_else(|| KernelError::InvalidArgument(format!("@{func} has no blocks")))?;

        if self.depth >= MAX_CALL_DEPTH {
            return Err(KernelError::NoMemory(format!(
                "kernel stack overflow: module call depth exceeds {MAX_CALL_DEPTH}"
            )));
        }
        self.depth += 1;
        let saved_args = std::mem::replace(&mut self.cur_args, args.to_vec());
        let saved_stack = self.stack_cursor;
        let result = self.run_frame(ctx, f, entry);
        self.stack_cursor = saved_stack;
        self.cur_args = saved_args;
        self.depth -= 1;
        result
    }

    fn run_frame(
        &mut self,
        ctx: &ModuleCtx,
        f: &kop_ir::Function,
        entry: BlockId,
    ) -> KernelResult<Option<u64>> {
        let mut regs: Vec<u64> = vec![0; f.inst_count()];
        let mut cur = entry;
        let mut prev: Option<BlockId> = None;

        loop {
            let blk = f.block(cur);

            // Phi nodes first, evaluated in parallel against `prev`.
            let phi_count = f.leading_phi_count(cur);
            if phi_count > 0 {
                let pb = prev.expect("phi in entry block impossible (verified)");
                let mut staged = Vec::with_capacity(phi_count);
                for &iid in &blk.insts[..phi_count] {
                    let Inst::Phi { ty, incomings } = f.inst(iid) else {
                        unreachable!()
                    };
                    let (_, v) = incomings
                        .iter()
                        .find(|(b, _)| *b == pb)
                        .expect("verified phi covers predecessor");
                    staged.push((iid, mask(ty, self.eval(ctx, &regs, v))));
                }
                for (iid, v) in staged {
                    regs[iid.0 as usize] = v;
                }
                self.burn(phi_count as u64)?;
            }

            for &iid in &blk.insts[phi_count..] {
                self.burn(1)?;
                let inst = f.inst(iid).clone();
                match inst {
                    Inst::Phi { .. } => unreachable!("phis are leading (verified)"),
                    Inst::Alloca { ty, count } => {
                        let size = ty.size_of().max(1) * count;
                        let align = ty.align_of().max(1);
                        self.stack_cursor = self.stack_cursor.div_ceil(align) * align;
                        if self.stack_cursor + size > self.stack_size {
                            return Err(KernelError::NoMemory("module stack overflow".into()));
                        }
                        let addr = self.stack_base.raw() + self.stack_cursor;
                        self.stack_cursor += size;
                        regs[iid.0 as usize] = addr;
                    }
                    Inst::Load { ty, ptr } => {
                        self.stats.mem_accesses += 1;
                        let addr = VAddr(self.eval(ctx, &regs, &ptr));
                        if std::mem::take(&mut self.squash_next) {
                            self.stats.squashed += 1;
                            regs[iid.0 as usize] = 0;
                        } else {
                            let v = self.kernel.mem.read_uint(addr, Size(ty.size_of()))?;
                            regs[iid.0 as usize] = mask(&ty, v);
                        }
                    }
                    Inst::Store { ty, val, ptr } => {
                        self.stats.mem_accesses += 1;
                        let addr = VAddr(self.eval(ctx, &regs, &ptr));
                        let v = mask(&ty, self.eval(ctx, &regs, &val));
                        if std::mem::take(&mut self.squash_next) {
                            self.stats.squashed += 1;
                        } else {
                            self.kernel.mem.write_uint(addr, Size(ty.size_of()), v)?;
                        }
                    }
                    Inst::Gep {
                        base_ty,
                        ptr,
                        indices,
                    } => {
                        let mut addr = self.eval(ctx, &regs, &ptr);
                        let first = self.eval(ctx, &regs, &indices[0]);
                        addr = addr.wrapping_add(base_ty.size_of().wrapping_mul(first));
                        let mut cur_ty = base_ty;
                        for idx in &indices[1..] {
                            match cur_ty {
                                Type::Array(elem, _) => {
                                    let i = self.eval(ctx, &regs, idx);
                                    addr = addr.wrapping_add(elem.size_of().wrapping_mul(i));
                                    cur_ty = *elem;
                                }
                                Type::Struct(_) => {
                                    let Value::ConstInt(_, c) = idx else {
                                        unreachable!("verified const struct index")
                                    };
                                    let off = cur_ty
                                        .struct_field_offset(*c as usize)
                                        .expect("verified index");
                                    addr = addr.wrapping_add(off);
                                    cur_ty =
                                        cur_ty.indexed_type(*c).expect("verified index").clone();
                                }
                                _ => unreachable!("verified gep walk"),
                            }
                        }
                        regs[iid.0 as usize] = addr;
                    }
                    Inst::Bin { op, ty, lhs, rhs } => {
                        let a = mask(&ty, self.eval(ctx, &regs, &lhs));
                        let b = mask(&ty, self.eval(ctx, &regs, &rhs));
                        let bits = ty.int_bits().unwrap_or(64);
                        let r = match op {
                            BinOp::Add => a.wrapping_add(b),
                            BinOp::Sub => a.wrapping_sub(b),
                            BinOp::Mul => a.wrapping_mul(b),
                            BinOp::UDiv | BinOp::URem | BinOp::SDiv | BinOp::SRem if b == 0 => {
                                return Err(KernelError::Fault {
                                    addr: VAddr::NULL,
                                    what: format!("division by zero in @{}", f.name),
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
                        regs[iid.0 as usize] = mask(&ty, r);
                    }
                    Inst::Icmp { pred, ty, lhs, rhs } => {
                        let a = mask(&ty, self.eval(ctx, &regs, &lhs));
                        let b = mask(&ty, self.eval(ctx, &regs, &rhs));
                        let bits = ty.int_bits().unwrap_or(64);
                        let (sa, sb) = (sign_extend(a, bits), sign_extend(b, bits));
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
                        regs[iid.0 as usize] = r as u64;
                    }
                    Inst::Cast {
                        op,
                        from_ty,
                        to_ty,
                        val,
                    } => {
                        let v = mask(&from_ty, self.eval(ctx, &regs, &val));
                        let r = match op {
                            CastOp::Zext | CastOp::PtrToInt | CastOp::IntToPtr => v,
                            CastOp::Trunc => mask(&to_ty, v),
                            CastOp::Sext => {
                                let bits = from_ty.int_bits().expect("verified");
                                mask(&to_ty, sign_extend(v, bits) as u64)
                            }
                        };
                        regs[iid.0 as usize] = r;
                    }
                    Inst::Select {
                        ty,
                        cond,
                        then_val,
                        else_val,
                    } => {
                        let c = self.eval(ctx, &regs, &cond) & 1;
                        let v = if c == 1 {
                            self.eval(ctx, &regs, &then_val)
                        } else {
                            self.eval(ctx, &regs, &else_val)
                        };
                        regs[iid.0 as usize] = mask(&ty, v);
                    }
                    Inst::Call { callee, args, .. } => {
                        let argv: Vec<u64> =
                            args.iter().map(|a| self.eval(ctx, &regs, a)).collect();
                        // Site attribution only matters (and only costs a
                        // map probe) while tracing is enabled.
                        let site = if self.kernel.tracer().enabled() {
                            ctx.sites.as_ref().and_then(|s| s.lookup(&f.name, iid.0))
                        } else {
                            None
                        };
                        if let Some(v) = self.dispatch_call(ctx, &callee, &argv, site)? {
                            regs[iid.0 as usize] = v;
                        }
                    }
                    Inst::Asm { .. } => {
                        // Attestation prevents signed modules from containing
                        // asm; executing one (unsafe-mode kernels) is a fault.
                        return Err(KernelError::Fault {
                            addr: VAddr::NULL,
                            what: format!("inline assembly executed in @{}", f.name),
                        });
                    }
                }
            }

            self.burn(1)?;
            let term = blk.term.as_ref().expect("verified terminator");
            match term {
                Terminator::Br(b) => {
                    prev = Some(cur);
                    cur = *b;
                }
                Terminator::CondBr {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let c = self.eval(ctx, &regs, cond) & 1;
                    prev = Some(cur);
                    cur = if c == 1 { *then_blk } else { *else_blk };
                }
                Terminator::Switch {
                    ty,
                    val,
                    default,
                    arms,
                } => {
                    let v = mask(ty, self.eval(ctx, &regs, val));
                    prev = Some(cur);
                    cur = arms
                        .iter()
                        .find(|(c, _)| mask(ty, *c) == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                }
                Terminator::Ret(None) => return Ok(None),
                Terminator::Ret(Some(v)) => return Ok(Some(self.eval(ctx, &regs, v))),
                Terminator::Unreachable => {
                    return Err(KernelError::Fault {
                        addr: VAddr::NULL,
                        what: format!("unreachable executed in @{}", f.name),
                    })
                }
            }
        }
    }

    fn eval(&self, ctx: &ModuleCtx, regs: &[u64], v: &Value) -> u64 {
        match v {
            Value::ConstInt(ty, val) => mask(ty, *val),
            Value::NullPtr => 0,
            Value::Global(name) => ctx
                .globals
                .get(name)
                .map(|a| a.raw())
                .unwrap_or_else(|| panic!("unknown global @{name} (verified module)")),
            Value::FuncAddr(name) => ctx
                .func_addrs
                .get(name)
                .map(|a| a.raw())
                .unwrap_or(0xffff_ffff_dead_0000),
            Value::Arg(i) => self.cur_args[*i as usize],
            Value::Inst(id) => regs[id.0 as usize],
        }
    }

    /// Map a policy outcome onto the trace-event decision tag.
    fn decision_of(outcome: &GuardOutcome) -> GuardDecision {
        match outcome {
            GuardOutcome::Allowed => GuardDecision::Allowed,
            GuardOutcome::Denied(_) => GuardDecision::Denied,
            GuardOutcome::Quarantined(_) => GuardDecision::Quarantined,
            GuardOutcome::Panicked(_) => GuardDecision::Panicked,
        }
    }

    /// Run one policy check against the policy governing `module` (§5:
    /// guards consult the policy of the module that executed them),
    /// pinned for the call. A guard with a site identity runs as its
    /// host's one traced check ([`ProfileShard::traced_check`], which
    /// only checks while tracing is off): a memory guard's
    /// `[addr, addr + size)` span widens the site's envelope, which
    /// promotion maps onto the region that grants it. The caller acts on
    /// the outcome after.
    fn checked(
        &mut self,
        module: &str,
        site: Option<SiteId>,
        span: Option<(VAddr, Size)>,
        check: impl FnOnce(&PolicyModule) -> GuardOutcome,
    ) -> GuardOutcome {
        let policy = self.vm_policy.pin(self.kernel, module);
        let Some(site) = site else {
            return check(policy);
        };
        let span = span.map(|(addr, size)| (addr.raw(), size.raw()));
        self.vm_profile.traced_check(
            Producer::Interp,
            site,
            span,
            || check(policy),
            Self::decision_of,
        )
    }

    /// Act on a policy outcome: `Ok(true)` when the guarded operation
    /// must be squashed, `Err` when the kernel panicked or the module's
    /// violation budget ran out.
    fn settle(&mut self, module: &str, outcome: GuardOutcome) -> KernelResult<bool> {
        match outcome {
            GuardOutcome::Allowed => Ok(false),
            GuardOutcome::Denied(_) => Ok(true),
            GuardOutcome::Quarantined(v) => {
                // Squash the access and charge the module; the kernel
                // unloads it when the budget runs out — and stays alive
                // either way.
                self.kernel.note_violation(module, v)?;
                Ok(true)
            }
            GuardOutcome::Panicked(e) => Err(self.kernel.do_panic(e)),
        }
    }

    /// Host/internal call dispatch.
    fn dispatch_call(
        &mut self,
        ctx: &ModuleCtx,
        callee: &str,
        args: &[u64],
        site: Option<SiteId>,
    ) -> KernelResult<Option<u64>> {
        if ctx.ir.function(callee).is_some() {
            return self.call_in(ctx, callee, args);
        }
        match callee {
            "carat_guard" => {
                let addr = VAddr(args[0]);
                let size = Size(args[1]);
                let flags = AccessFlags::from_raw(args[2] as u32);
                self.run_mem_guard(&ctx.ir.name, addr, size, flags, site)?;
                Ok(None)
            }
            "carat_intrinsic_guard" => {
                let id = args.first().copied().unwrap_or(u64::MAX) as u32;
                self.run_intrinsic_guard(&ctx.ir.name, id, site)?;
                Ok(None)
            }
            other => self.host_call(&HostFn::resolve(other), args),
        }
    }

    /// A `carat_guard` memory-access check. Shared by the tree and
    /// bytecode engines (the bytecode engine also enters here from fused
    /// guard-access superinstructions and promoted deopts).
    fn run_mem_guard(
        &mut self,
        module: &str,
        addr: VAddr,
        size: Size,
        flags: AccessFlags,
        site: Option<SiteId>,
    ) -> KernelResult<()> {
        self.stats.guards += 1;
        let outcome = self.checked(module, site, Some((addr, size)), |p| {
            p.enforce(addr, size, flags)
        });
        if self.settle(module, outcome)? {
            self.squash_next = true;
        }
        Ok(())
    }

    /// A `carat_intrinsic_guard` check preceding a privileged builtin;
    /// a refusal squashes the intrinsic itself.
    fn run_intrinsic_guard(
        &mut self,
        module: &str,
        id: u32,
        site: Option<SiteId>,
    ) -> KernelResult<()> {
        self.stats.guards += 1;
        let outcome = self.checked(module, site, None, |p| p.enforce_intrinsic(id));
        if self.settle(module, outcome)? {
            self.squash_intrinsic = true;
        }
        Ok(())
    }

    /// The kernel ABI available to modules. Privileged builtins (§5
    /// extension) honour a preceding denied intrinsic guard by squashing
    /// themselves (reads return 0).
    fn host_call(&mut self, host: &HostFn, args: &[u64]) -> KernelResult<Option<u64>> {
        match host {
            HostFn::Wrmsr => {
                if !std::mem::take(&mut self.squash_intrinsic) {
                    self.kernel.wrmsr(
                        args.first().copied().unwrap_or(0),
                        args.get(1).copied().unwrap_or(0),
                    );
                }
                Ok(None)
            }
            HostFn::Rdmsr => {
                if std::mem::take(&mut self.squash_intrinsic) {
                    Ok(Some(0))
                } else {
                    Ok(Some(self.kernel.rdmsr(args.first().copied().unwrap_or(0))))
                }
            }
            HostFn::Cli => {
                if !std::mem::take(&mut self.squash_intrinsic) {
                    self.kernel.cli();
                }
                Ok(None)
            }
            HostFn::Sti => {
                if !std::mem::take(&mut self.squash_intrinsic) {
                    self.kernel.sti();
                }
                Ok(None)
            }
            HostFn::Invlpg => {
                // TLB shootdown: no architectural state in the model.
                let _ = std::mem::take(&mut self.squash_intrinsic);
                Ok(None)
            }
            HostFn::Hlt => {
                let _ = std::mem::take(&mut self.squash_intrinsic);
                Err(self.kernel.do_panic(KernelError::Panic {
                    message: "module executed __hlt".into(),
                    violation: None,
                }))
            }
            HostFn::Printk => {
                let msg = format!("module printk: {:#x}", args.first().copied().unwrap_or(0));
                self.kernel.printk(&msg);
                Ok(None)
            }
            HostFn::Kmalloc => {
                let addr = self.kernel.kmalloc(args.first().copied().unwrap_or(0))?;
                Ok(Some(addr.raw()))
            }
            HostFn::Kfree => {
                self.kernel.kfree(VAddr(args.first().copied().unwrap_or(0)));
                Ok(None)
            }
            HostFn::Panic => Err(self.kernel.do_panic(KernelError::Panic {
                message: format!(
                    "module called panic({:#x})",
                    args.first().copied().unwrap_or(0)
                ),
                violation: None,
            })),
            HostFn::Unresolved(other) => Err(KernelError::UnresolvedSymbol(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests;
