//! # kop-vm — one-shot bytecode compilation of verified KIR
//!
//! The program every production call runs. Lowering happens **once, at
//! insmod**: which arena slot a value lives in, what mask its type
//! implies, which block offset a branch target resolves to, whether a
//! callee is internal, a kernel-ABI host function, or a guard — all a
//! pure function of the verified module and its insmod-time layout, so
//! the interpreter runs a flat register-based bytecode with a tight
//! dispatch loop. A module that cannot be lowered is refused at insmod.
//!
//! Lowering pre-resolves:
//!
//! * block targets → instruction offsets ([`Edge::target`]),
//! * phi nodes → per-edge move schedules executed on the branch
//!   ([`Edge::moves`]; staging is only paid on edges whose parallel
//!   moves actually conflict),
//! * globals / function addresses → immediate operands ([`Src::Imm`]),
//! * callees → internal function indices or prebuilt [`HostFn`] kernel
//!   ABI entries (unknown imports stay lazily-erroring, like the tree),
//! * guard sites → inline [`SiteId`]s, so tracing attribution costs no
//!   map probe,
//! * adjacent `carat_guard` + load/store pairs → fused guard-access
//!   superinstructions ([`Op::GuardLoad`] / [`Op::GuardStore`]) that
//!   check and perform the access in one dispatch.
//!
//! Profile-directed promotion ([`CompiledModule::promote`]) publishes a
//! copy of the hot functions with each hot guard's [`Bound`] filled in:
//! the same instruction set, the same program, with compares where the
//! policy call was.
//!
//! The bytecode preserves the observable semantics of `kop-interp`'s
//! reference tree walker exactly — instruction/fuel accounting, squash
//! ordering, masking discipline, error messages — which the
//! differential property tests in the root crate check. Execution
//! itself lives in `kop-interp` (it needs the kernel); this crate is
//! deliberately kernel-free so the loader can depend on it.

#![warn(missing_docs)]

mod lower;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arc_swap::ArcSwap;

pub use lower::{lower_module, LowerError};

use kop_ir::{BinOp, CastOp, IcmpPred};
use kop_trace::SiteId;

/// A pre-resolved operand: where the tree interpreter pattern-matched a
/// [`kop_ir::Value`] per use, the bytecode reads a register, a formal
/// argument, or an immediate (constants, global addresses, function
/// addresses — all resolved at lowering time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Virtual register (one per arena instruction).
    Reg(u32),
    /// Formal parameter of the executing function.
    Arg(u32),
    /// Immediate, pre-masked to its IR type at lowering time.
    Imm(u64),
}

/// One scheduled phi move for a control-flow edge: `regs[dst] = mask &
/// eval(src)`. The whole schedule is a *parallel* assignment — see
/// [`Edge::staged`].
#[derive(Clone, Copy, Debug)]
pub struct Move {
    /// Destination register (the phi's arena slot).
    pub dst: u32,
    /// Incoming value for this edge.
    pub src: Src,
    /// Mask of the phi's type, applied to the staged value.
    pub mask: u64,
}

/// A pre-resolved control-flow edge: where to jump and which phi moves
/// to execute on the way.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Bytecode offset of the successor block's first op. (During
    /// lowering this temporarily holds the successor `BlockId`; it is
    /// patched to an offset before the function is published.)
    pub target: u32,
    /// Phi move schedule for this edge (empty for phi-less targets).
    pub moves: Box<[Move]>,
    /// Fuel charged after the moves — the successor's leading-phi count,
    /// matching the tree interpreter's per-phi accounting.
    pub phi_burn: u32,
    /// Whether any move reads a register another move writes: if so the
    /// executor stages all reads before the first write (the parallel
    /// semantics of phi nodes); conflict-free edges write directly.
    pub staged: bool,
}

/// A kernel-ABI host function, resolved from the callee symbol at
/// lowering time. `Unresolved` mirrors the tree interpreter's lazy
/// behaviour: the symbol only faults if the call actually executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostFn {
    /// `__wrmsr(msr, value)` privileged intrinsic.
    Wrmsr,
    /// `__rdmsr(msr) -> value` privileged intrinsic.
    Rdmsr,
    /// `__cli()` privileged intrinsic.
    Cli,
    /// `__sti()` privileged intrinsic.
    Sti,
    /// `__invlpg(addr)` privileged intrinsic (no-op in the model).
    Invlpg,
    /// `__hlt()` privileged intrinsic (panics the kernel).
    Hlt,
    /// `printk(i64)`.
    Printk,
    /// `kmalloc(i64) -> ptr`.
    Kmalloc,
    /// `kfree(ptr)`.
    Kfree,
    /// `panic(i64)`.
    Panic,
    /// Import that resolved to nothing: executing it raises
    /// `UnresolvedSymbol`, exactly like the tree interpreter.
    Unresolved(Box<str>),
}

impl HostFn {
    /// Resolve a callee symbol to its host entry.
    pub fn resolve(name: &str) -> HostFn {
        match name {
            "__wrmsr" => HostFn::Wrmsr,
            "__rdmsr" => HostFn::Rdmsr,
            "__cli" => HostFn::Cli,
            "__sti" => HostFn::Sti,
            "__invlpg" => HostFn::Invlpg,
            "__hlt" => HostFn::Hlt,
            "printk" => HostFn::Printk,
            "kmalloc" => HostFn::Kmalloc,
            "kfree" => HostFn::Kfree,
            "panic" => HostFn::Panic,
            other => HostFn::Unresolved(other.into()),
        }
    }
}

/// A promoted memory guard's baked bound: the granting region's
/// `[lo, hi)` and raw permission bits (`AccessFlags::raw`), tagged with
/// the snapshot generation they were taken from. The admit test is
/// `gen` current, `lo <= addr && addr + size <= hi` and `perm ⊇ flags`;
/// anything else deopts to the general policy path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bound {
    /// Inclusive lower bound of the granted region.
    pub lo: u64,
    /// Exclusive upper bound of the granted region.
    pub hi: u64,
    /// Raw permission bits the grant carries.
    pub perm: u32,
    /// Snapshot generation the bound was baked from.
    pub gen: u64,
}

/// One flat bytecode instruction. Every op charges one fuel unit before
/// executing (the fused guard-access ops charge two — one per original
/// IR instruction — with the guard/access fuel checkpoint preserved).
///
/// The general and the promoted tier share this one instruction set.
/// Each memory guard ([`Op::Guard`], [`Op::GuardLoad`],
/// [`Op::GuardStore`]) carries a `bound`: `None` in the general tier,
/// where the guard consults the policy, and the baked [`Bound`] in a
/// promoted copy, where the guard admits with compares when the
/// generation and revocation epoch still match and otherwise deopts to
/// the general path with the same operands. Fuel and observable
/// semantics are identical either way.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // field meanings documented per variant
pub enum Op {
    /// Stack allocation; size/align precomputed from the IR type.
    Alloca { size: u64, align: u64, dst: u32 },
    /// Scalar load: `dst = mask & mem[ptr]` (`size` bytes).
    Load {
        size: u64,
        mask: u64,
        ptr: Src,
        dst: u32,
    },
    /// Scalar store: `mem[ptr] = mask & val` (`size` bytes).
    Store {
        size: u64,
        mask: u64,
        val: Src,
        ptr: Src,
    },
    /// Fused `carat_guard` + load superinstruction. `bound` is `None`
    /// in the general tier and the baked bound in a promoted copy.
    GuardLoad {
        site: Option<SiteId>,
        bound: Option<Bound>,
        gaddr: Src,
        gsize: Src,
        gflags: Src,
        size: u64,
        mask: u64,
        ptr: Src,
        dst: u32,
    },
    /// Fused `carat_guard` + store superinstruction; `bound` as for
    /// [`Op::GuardLoad`].
    GuardStore {
        site: Option<SiteId>,
        bound: Option<Bound>,
        gaddr: Src,
        gsize: Src,
        gflags: Src,
        size: u64,
        mask: u64,
        val: Src,
        ptr: Src,
    },
    /// Address arithmetic with constant contributions folded:
    /// `dst = base + offset + Σ scale·idx` (all wrapping).
    Gep {
        base: Src,
        offset: u64,
        terms: Box<[(u64, Src)]>,
        dst: u32,
    },
    /// Integer binary op; `mask`/`bits` precomputed from the type.
    Bin {
        op: BinOp,
        mask: u64,
        bits: u32,
        lhs: Src,
        rhs: Src,
        dst: u32,
    },
    /// Integer comparison; yields 0/1.
    Icmp {
        pred: IcmpPred,
        mask: u64,
        bits: u32,
        lhs: Src,
        rhs: Src,
        dst: u32,
    },
    /// Cast with both type masks precomputed.
    Cast {
        op: CastOp,
        from_mask: u64,
        from_bits: u32,
        to_mask: u64,
        val: Src,
        dst: u32,
    },
    /// Ternary select.
    Select {
        mask: u64,
        cond: Src,
        then_val: Src,
        else_val: Src,
        dst: u32,
    },
    /// Call into another function of the same module, by prebuilt index.
    CallInternal {
        func: u32,
        args: Box<[Src]>,
        dst: u32,
    },
    /// Call a kernel-ABI host function.
    CallHost {
        host: HostFn,
        args: Box<[Src]>,
        dst: u32,
    },
    /// Standalone memory guard (not adjacent to its access — e.g. a
    /// hoisted loop-invariant guard); `bound` as for [`Op::GuardLoad`].
    Guard {
        site: Option<SiteId>,
        bound: Option<Bound>,
        addr: Src,
        size: Src,
        flags: Src,
    },
    /// Privileged-intrinsic guard (`carat_intrinsic_guard`).
    IntrinsicGuard { site: Option<SiteId>, id: Src },
    /// Inline assembly: faults on execution (attestation normally
    /// prevents it from ever being loaded).
    Asm,
    /// Unconditional branch through an edge.
    Jump(u32),
    /// Conditional branch: `cond & 1` selects the edge.
    CondJump {
        cond: Src,
        then_edge: u32,
        else_edge: u32,
    },
    /// Multi-way switch; `arms` hold pre-masked case constants, scanned
    /// first-match like the tree interpreter.
    SwitchJump {
        mask: u64,
        val: Src,
        arms: Box<[(u64, u32)]>,
        default_edge: u32,
    },
    /// Return, optionally with a value.
    Ret(Option<Src>),
    /// Unreachable: faults on execution.
    Unreachable,
}

/// One compiled function: flat code plus its edge table.
#[derive(Clone, Debug)]
pub struct CompiledFunc {
    /// Symbol name (for error messages and call-site attribution).
    pub name: String,
    /// Number of formal parameters (checked on entry, same message as
    /// the tree interpreter).
    pub n_params: usize,
    /// Virtual register count (one per arena instruction).
    pub n_regs: usize,
    /// Whether the function has any blocks; block-less declarations
    /// error on entry exactly like the tree.
    pub has_blocks: bool,
    /// Flat bytecode; execution starts at offset 0 (the entry block).
    pub code: Vec<Op>,
    /// Control-flow edges referenced by the jump ops.
    pub edges: Vec<Edge>,
}

/// The baked bound for one hot guard site, produced by the promotion
/// pass from a policy snapshot. `perm` holds raw access-flag bits; the
/// admit test is `lo <= addr && addr + size <= hi && perm ⊇ flags`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromotionSpec {
    /// The guard site whose bound is being inlined.
    pub site: SiteId,
    /// Inclusive lower bound of the granted region.
    pub lo: u64,
    /// Exclusive upper bound of the granted region.
    pub hi: u64,
    /// Raw permission bits the grant carries (`AccessFlags::raw`).
    pub perm: u32,
}

/// One published generation of promoted code: the re-lowered functions
/// plus the policy, snapshot generation and revocation epoch their
/// bounds were baked from. Swapped wholesale — readers either see the
/// complete tier or none of it.
#[derive(Debug, Default)]
pub struct PromotedTier {
    /// Namespace id of the policy the bounds were baked from (0 = the
    /// empty tier). Namespace ids are never reused and no policy has id
    /// 0, so an executor runs the tier only for a call whose policy has
    /// this id: two policies' generations and epochs both start at 1 and
    /// cannot tell the policies apart.
    pub ns: u64,
    /// Snapshot generation every baked bound in this tier cites
    /// (0 = the empty tier; real generations start at 1).
    pub gen: u64,
    /// Revocation epoch the tier was baked under (0 = the empty tier;
    /// real epochs start at 1). A fleet-wide revoke advances the
    /// policy's epoch without republishing, so promoted frames compare
    /// this against the live epoch to deopt promptly.
    pub epoch: u64,
    /// Function index → its promoted re-lowering, if it has one.
    funcs: Vec<Option<CompiledFunc>>,
}

impl PromotedTier {
    /// The promoted re-lowering of function `idx`, if this tier has
    /// one; `None` means run the general bytecode. An executor loads
    /// the tier once ([`CompiledModule::promoted_tier`]) and finds every
    /// frame's code here by reference, so one call never mixes two
    /// tiers' code or pairs one tier's code with another's epoch.
    pub fn func(&self, idx: u32) -> Option<&CompiledFunc> {
        self.funcs.get(idx as usize)?.as_ref()
    }
}

/// Where a module's promoted tier is published: the tier behind an
/// [`ArcSwap`], and the id it was published under.
#[derive(Debug)]
struct TierCell {
    tier: ArcSwap<PromotedTier>,
    /// Stored after every publish, from [`NEXT_TIER_ID`]: never reused,
    /// so an executor that keeps a tier across calls revalidates it with
    /// one load.
    id: AtomicU64,
}

/// The process-wide source of tier ids.
static NEXT_TIER_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_tier_id() -> u64 {
    NEXT_TIER_ID.fetch_add(1, Ordering::SeqCst)
}

impl TierCell {
    fn new() -> TierCell {
        TierCell {
            tier: ArcSwap::from_pointee(PromotedTier::default()),
            id: AtomicU64::new(fresh_tier_id()),
        }
    }

    /// Publish `tier`, then its fresh id: a reader that loads the id and
    /// then the tier holds a tier at least as new as the id it keys.
    fn publish(&self, tier: PromotedTier) {
        self.tier.store(Arc::new(tier));
        self.id.store(fresh_tier_id(), Ordering::SeqCst);
    }
}

/// A module lowered to bytecode: built once at insmod, cached in the
/// loaded-module image, shared by every subsequent call.
///
/// The optional *promoted tier* holds re-lowered copies of hot
/// functions whose guard ops carry inlined bounds. It lives behind an
/// [`ArcSwap`] so the promotion pass can publish (and epoch bumps can
/// invalidate) without locking executors, next to a never-reused id
/// ([`CompiledModule::tier_id`]) executors key a kept tier by; clones
/// of the module share one tier.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// The module's name (used for policy lookup and diagnostics).
    pub module_name: String,
    funcs: Vec<CompiledFunc>,
    by_name: BTreeMap<String, u32>,
    promoted: Arc<TierCell>,
}

impl CompiledModule {
    pub(crate) fn new(module_name: String, funcs: Vec<CompiledFunc>) -> CompiledModule {
        let by_name = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i as u32))
            .collect();
        CompiledModule {
            module_name,
            funcs,
            by_name,
            promoted: Arc::new(TierCell::new()),
        }
    }

    /// Index of a function by symbol name.
    pub fn func_index(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Function by index (indices come from [`CompiledModule::func_index`]
    /// or [`Op::CallInternal`]).
    pub fn func(&self, idx: u32) -> &CompiledFunc {
        &self.funcs[idx as usize]
    }

    /// Number of compiled functions.
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of fused guard-access superinstructions across the module
    /// (diagnostics / tests).
    pub fn fused_guard_count(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.code.iter())
            .filter(|op| matches!(op, Op::GuardLoad { .. } | Op::GuardStore { .. }))
            .count()
    }

    /// Copy every function containing one of `specs`' sites into the
    /// promoted tier, filling each matching guard op's `bound` in place
    /// with the baked bound and `gen`. Offsets, edges, register counts,
    /// and fuel accounting are untouched — a promoted function is the
    /// same program with three compares where the policy call was. Publishes the new tier atomically (replacing any prior
    /// tier wholesale) and returns the number of guard ops promoted.
    ///
    /// Sites are promoted wherever they occur; sites in `specs` that
    /// match no guard op are skipped. An empty result publishes nothing
    /// and leaves the existing tier in place.
    ///
    /// `ns` is the namespace id of the policy the bounds come from; an
    /// executor runs the tier only for a call governed by that policy.
    /// `epoch` is the governing policy's revocation epoch at bake time;
    /// promoted frames deopt when it no longer matches the live epoch
    /// (fleet-wide revocation without generation churn).
    pub fn promote(&self, ns: u64, gen: u64, epoch: u64, specs: &[PromotionSpec]) -> usize {
        let by_site: BTreeMap<SiteId, &PromotionSpec> = specs.iter().map(|s| (s.site, s)).collect();
        let mut tier = PromotedTier {
            ns,
            gen,
            epoch,
            funcs: vec![None; self.funcs.len()],
        };
        let mut promoted_ops = 0usize;
        for (idx, func) in self.funcs.iter().enumerate() {
            let mut clone = func.clone();
            let mut hits = 0usize;
            for op in &mut clone.code {
                if let Op::GuardLoad {
                    site: Some(s),
                    bound,
                    ..
                }
                | Op::GuardStore {
                    site: Some(s),
                    bound,
                    ..
                }
                | Op::Guard {
                    site: Some(s),
                    bound,
                    ..
                } = op
                {
                    if let Some(spec) = by_site.get(s) {
                        *bound = Some(Bound {
                            lo: spec.lo,
                            hi: spec.hi,
                            perm: spec.perm,
                            gen,
                        });
                        hits += 1;
                    }
                }
            }
            if hits > 0 {
                promoted_ops += hits;
                tier.funcs[idx] = Some(clone);
            }
        }
        if promoted_ops == 0 {
            return 0;
        }
        self.promoted.publish(tier);
        promoted_ops
    }

    /// The current promoted tier (the empty tier when nothing is
    /// promoted). A publish or invalidation after an executor loaded it
    /// reaches the executor's next call, and until then the tier's
    /// generation and epoch tags make its inline guards deopt.
    pub fn promoted_tier(&self) -> Arc<PromotedTier> {
        self.promoted.tier.load_full()
    }

    /// Id of the current promoted tier: stored after every publish and
    /// invalidation, never reused. An executor that keeps a tier across
    /// calls loads this first and reloads the tier only when it moved.
    #[inline]
    pub fn tier_id(&self) -> u64 {
        self.promoted.id.load(Ordering::SeqCst)
    }

    /// Snapshot generation of the current promoted tier (0 = none).
    pub fn promoted_generation(&self) -> u64 {
        self.promoted.tier.load().gen
    }

    /// Revocation epoch of the current promoted tier (0 = none).
    pub fn promoted_epoch(&self) -> u64 {
        self.promoted.tier.load().epoch
    }

    /// Number of guard ops with a baked bound across the current tier.
    pub fn promoted_guard_count(&self) -> usize {
        self.promoted
            .tier
            .load()
            .funcs
            .iter()
            .flatten()
            .flat_map(|f| f.code.iter())
            .filter(|op| {
                matches!(
                    op,
                    Op::GuardLoad { bound: Some(_), .. }
                        | Op::GuardStore { bound: Some(_), .. }
                        | Op::Guard { bound: Some(_), .. }
                )
            })
            .count()
    }

    /// Atomically drop the promoted tier: every subsequent
    /// [`CompiledModule::promoted_tier`] load sees the empty tier. Used
    /// on epoch bumps / policy replacement so no executor can admit
    /// against a stale bound; a call that loaded the tier earlier keeps
    /// running it, and its inline guards deopt per op via the
    /// generation check.
    pub fn invalidate_promotions(&self) {
        self.promoted.publish(PromotedTier::default());
    }
}

#[cfg(test)]
mod promote_tests {
    use super::*;

    fn guard_func() -> CompiledFunc {
        CompiledFunc {
            name: "tx".into(),
            n_params: 1,
            n_regs: 4,
            has_blocks: true,
            code: vec![
                Op::GuardLoad {
                    site: Some(SiteId(7)),
                    bound: None,
                    gaddr: Src::Arg(0),
                    gsize: Src::Imm(4),
                    gflags: Src::Imm(1),
                    size: 4,
                    mask: u64::MAX,
                    ptr: Src::Arg(0),
                    dst: 0,
                },
                Op::Guard {
                    site: Some(SiteId(9)),
                    bound: None,
                    addr: Src::Arg(0),
                    size: Src::Imm(8),
                    flags: Src::Imm(2),
                },
                Op::GuardStore {
                    site: Some(SiteId(11)),
                    bound: None,
                    gaddr: Src::Arg(0),
                    gsize: Src::Imm(4),
                    gflags: Src::Imm(2),
                    size: 4,
                    mask: u64::MAX,
                    val: Src::Reg(0),
                    ptr: Src::Arg(0),
                },
                Op::Ret(Some(Src::Reg(0))),
            ],
            edges: Vec::new(),
        }
    }

    fn spec(site: u32, lo: u64, hi: u64) -> PromotionSpec {
        PromotionSpec {
            site: SiteId(site),
            lo,
            hi,
            perm: 3,
        }
    }

    #[test]
    fn promote_fills_the_bound_in_place() {
        let m = CompiledModule::new("m".into(), vec![guard_func()]);
        assert_eq!(m.promoted_generation(), 0);
        assert!(m.promoted_tier().func(0).is_none());

        let id = m.tier_id();
        let n = m.promote(
            1,
            5,
            1,
            &[spec(7, 0x1000, 0x2000), spec(11, 0x3000, 0x4000)],
        );
        assert_eq!(n, 2);
        assert_ne!(m.tier_id(), id, "a publish stores a fresh id");
        assert_eq!(m.promoted_tier().ns, 1);
        assert_eq!(m.promoted_generation(), 5);
        assert_eq!(m.promoted_epoch(), 1);
        assert_eq!(m.promoted_guard_count(), 2);

        let tier = m.promoted_tier();
        let pf = tier.func(0).expect("tier holds the function");
        // Same shape: offsets, edges, register counts all unchanged.
        assert_eq!(pf.code.len(), m.func(0).code.len());
        assert_eq!(pf.n_regs, m.func(0).n_regs);
        match &pf.code[0] {
            Op::GuardLoad {
                site,
                bound: Some(b),
                ptr,
                ..
            } => {
                assert_eq!(*site, Some(SiteId(7)));
                let baked = Bound {
                    lo: 0x1000,
                    hi: 0x2000,
                    perm: 3,
                    gen: 5,
                };
                assert_eq!(*b, baked);
                assert_eq!(*ptr, Src::Arg(0));
            }
            other => panic!("expected a bound GuardLoad, got {other:?}"),
        }
        // Site 9, absent from the specs, keeps the general path.
        assert!(matches!(
            &pf.code[1],
            Op::Guard { site: Some(s), bound: None, .. } if *s == SiteId(9)
        ));
        assert!(matches!(
            &pf.code[2],
            Op::GuardStore {
                bound: Some(Bound { gen: 5, .. }),
                ..
            }
        ));
        // The general tier is untouched.
        assert!(matches!(
            &m.func(0).code[0],
            Op::GuardLoad { bound: None, .. }
        ));
        assert!(matches!(
            &m.func(0).code[2],
            Op::GuardStore { bound: None, .. }
        ));
    }

    #[test]
    fn promoting_unknown_sites_publishes_nothing() {
        let m = CompiledModule::new("m".into(), vec![guard_func()]);
        m.promote(1, 3, 1, &[spec(7, 0, 0x100)]);
        assert_eq!(m.promoted_generation(), 3);
        // A later pass with no matching sites must not clobber the tier.
        let id = m.tier_id();
        assert_eq!(m.promote(1, 4, 1, &[spec(999, 0, 0x100)]), 0);
        assert_eq!(m.promoted_generation(), 3);
        assert_eq!(m.tier_id(), id, "nothing published");
        assert!(m.promoted_tier().func(0).is_some());
    }

    #[test]
    fn invalidate_drops_the_tier_and_clones_share_it() {
        let m = CompiledModule::new("m".into(), vec![guard_func()]);
        let alias = m.clone();
        m.promote(1, 9, 1, &[spec(9, 0x10, 0x20)]);
        assert_eq!(alias.promoted_generation(), 9, "clones share the tier");
        assert_eq!(alias.tier_id(), m.tier_id(), "and its id");
        let promoted_id = m.tier_id();
        let tier = alias.promoted_tier();
        assert_eq!(tier.epoch, 1, "the tier carries its bake epoch");
        assert!(matches!(
            &tier.func(0).unwrap().code[1],
            Op::Guard {
                bound: Some(Bound { gen: 9, .. }),
                ..
            }
        ));
        alias.invalidate_promotions();
        assert_eq!(m.promoted_generation(), 0);
        assert!(m.tier_id() > promoted_id, "an invalidation is a publish");
        assert_eq!(m.promoted_tier().ns, 0, "no policy runs the empty tier");
        assert!(m.promoted_tier().func(0).is_none());
        // A tier loaded before the invalidation stays whole for its
        // holder: same code, same tags.
        assert_eq!((tier.gen, tier.epoch), (9, 1));
        assert!(tier.func(0).is_some());
        // Re-promotion after invalidation works (lazy re-promote path).
        assert_eq!(m.promote(1, 10, 2, &[spec(9, 0x10, 0x20)]), 1);
        assert_eq!(alias.promoted_generation(), 10);
    }
}
