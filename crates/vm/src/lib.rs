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
//! [`PromotedTier`]: one [`Grant`] per hot guard site, beside the one
//! program. A guard op whose site the tier holds runs
//! [`Grant::admits`] where the policy call was.
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

use parking_lot::Mutex;

pub use lower::{lower_module, LowerError};

use kop_core::{Grant, Region};
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

/// One flat bytecode instruction. Every op charges one fuel unit before
/// executing (the fused guard-access ops charge two — one per original
/// IR instruction — with the guard/access fuel checkpoint preserved).
///
/// Each memory guard ([`Op::Guard`], [`Op::GuardLoad`],
/// [`Op::GuardStore`]) carries its trace site. A call that runs a
/// [`PromotedTier`] asks it for the site's grant: with one, the guard
/// admits when [`Grant::admits`] holds against the live generation and
/// otherwise deopts to the general path with the same operands; without
/// one, it consults the policy. Fuel and observable semantics are
/// identical either way.
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
    /// Fused `carat_guard` + load superinstruction.
    GuardLoad {
        site: Option<SiteId>,
        gaddr: Src,
        gsize: Src,
        gflags: Src,
        size: u64,
        mask: u64,
        ptr: Src,
        dst: u32,
    },
    /// Fused `carat_guard` + store superinstruction.
    GuardStore {
        site: Option<SiteId>,
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
    /// hoisted loop-invariant guard).
    Guard {
        site: Option<SiteId>,
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

/// One published promotion: a grant per baked guard site, plus the
/// snapshot generation they were baked from. Swapped wholesale —
/// readers either see the complete tier or none of it.
#[derive(Debug, Default)]
pub struct PromotedTier {
    /// Snapshot generation every grant in this tier cites (0 = the
    /// empty tier; no snapshot has generation 0). Generations are
    /// process-wide, so it names one snapshot of one policy: under any
    /// other policy, or after a publish, every grant deopts.
    pub gen: u64,
    /// Id of the first site `grants` covers.
    base: u32,
    /// Site `base + i` → its grant, dense over the baked id range: a
    /// module's sites are registered contiguously, so the table spans at
    /// most the module's own sites.
    grants: Box<[Option<Grant>]>,
}

impl PromotedTier {
    /// The grant baked for `site`, if this tier holds one; `None` means
    /// the guard takes the general path. One subtraction and one bounds
    /// check, no map probe. An executor loads the tier once per call
    /// ([`CompiledModule::promoted_tier`]), so one call never mixes two
    /// tiers' grants.
    #[inline]
    pub fn grant(&self, site: SiteId) -> Option<&Grant> {
        self.grants
            .get(site.0.wrapping_sub(self.base) as usize)?
            .as_ref()
    }
}

/// Where a module's promoted tier is published: the tier behind a short
/// lock, and the id it was published under.
#[derive(Debug)]
struct TierCell {
    /// Locked by a publish and by a reader that needs the tier itself:
    /// [`CompiledModule::promoted_tier`], [`CompiledModule::promoted_generation`]
    /// and an executor whose kept tier's id moved.
    tier: Mutex<Arc<PromotedTier>>,
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
            tier: Mutex::new(Arc::default()),
            id: AtomicU64::new(fresh_tier_id()),
        }
    }

    /// Install `tier` under the lock, then store its fresh id: a reader
    /// that loads the id and then locks holds a tier at least as new as
    /// the id it keys. The superseded tier is dropped after the unlock.
    fn publish(&self, tier: PromotedTier) {
        let superseded = std::mem::replace(&mut *self.tier.lock(), Arc::new(tier));
        self.id.store(fresh_tier_id(), Ordering::SeqCst);
        drop(superseded);
    }
}

/// A module lowered to bytecode: built once at insmod, cached in the
/// loaded-module image, shared by every subsequent call.
///
/// A module has one program. The optional *promoted tier* beside it
/// holds a grant per hot guard site ([`PromotedTier`]). It lives behind
/// a short lock, next to a never-reused id ([`CompiledModule::tier_id`])
/// that executors key a kept tier by, so an executor locks only when the
/// promotion pass published (or dropped) a tier since its last call;
/// clones of the module share one tier. Policy publishes and swaps never
/// touch it: its generation tag makes a stale tier deopt.
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

    /// Number of fused guard-access superinstructions across the module
    /// (diagnostics / tests).
    pub fn fused_guard_count(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.code.iter())
            .filter(|op| matches!(op, Op::GuardLoad { .. } | Op::GuardStore { .. }))
            .count()
    }

    /// Bake the [`Grant`] of each of `sites`' regions at `gen` into a new
    /// promoted tier: every memory guard op carrying one of the sites
    /// admits by that grant, with [`Grant::admits`] where the policy call
    /// was. The program is untouched. Publishes the new tier atomically
    /// (replacing any prior tier wholesale) and returns the number of
    /// guard ops whose site it baked.
    ///
    /// Only sites some guard op carries are baked; the rest are
    /// skipped. An empty result publishes nothing and leaves the
    /// existing tier in place.
    pub fn promote(&self, gen: u64, sites: &[(SiteId, Region)]) -> usize {
        let by_site: BTreeMap<SiteId, Region> = sites.iter().copied().collect();
        let mut baked = BTreeMap::new();
        let mut promoted_ops = 0usize;
        for op in self.funcs.iter().flat_map(|f| f.code.iter()) {
            if let Op::GuardLoad { site: Some(s), .. }
            | Op::GuardStore { site: Some(s), .. }
            | Op::Guard { site: Some(s), .. } = op
            {
                if let Some(&region) = by_site.get(s) {
                    baked.insert(s.0, Grant { region, gen });
                    promoted_ops += 1;
                }
            }
        }
        let (Some(&base), Some(&last)) = (baked.keys().next(), baked.keys().next_back()) else {
            return 0;
        };
        let mut grants = vec![None; (last - base) as usize + 1];
        for (site, grant) in baked {
            grants[(site - base) as usize] = Some(grant);
        }
        self.promoted.publish(PromotedTier {
            gen,
            base,
            grants: grants.into(),
        });
        promoted_ops
    }

    /// The current promoted tier (the empty tier when nothing is
    /// promoted). A promotion or invalidation after an executor loaded
    /// it reaches the executor's next call; a policy publish reaches no
    /// tier, whose generation tag makes its inline guards deopt.
    pub fn promoted_tier(&self) -> Arc<PromotedTier> {
        Arc::clone(&self.promoted.tier.lock())
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
        self.promoted.tier.lock().gen
    }

    /// Atomically drop the promoted tier: every subsequent
    /// [`CompiledModule::promoted_tier`] load sees the empty tier. The
    /// kernel's promotion sweep uses it on a stale tier it can bake
    /// nothing for; a call that loaded the tier earlier keeps running
    /// it, and its inline guards deopt per op via the generation check.
    pub fn invalidate_promotions(&self) {
        self.promoted.publish(PromotedTier::default());
    }
}

#[cfg(test)]
mod promote_tests {
    use super::*;
    use kop_core::{Protection, Size, VAddr};

    /// Site 7 on two ops (a fused load and a standalone guard), sites 9
    /// and 11 on one each.
    fn guard_func() -> CompiledFunc {
        let guard = |site, flags| Op::Guard {
            site: Some(SiteId(site)),
            addr: Src::Arg(0),
            size: Src::Imm(8),
            flags: Src::Imm(flags),
        };
        CompiledFunc {
            name: "tx".into(),
            n_params: 1,
            n_regs: 4,
            has_blocks: true,
            code: vec![
                Op::GuardLoad {
                    site: Some(SiteId(7)),
                    gaddr: Src::Arg(0),
                    gsize: Src::Imm(4),
                    gflags: Src::Imm(1),
                    size: 4,
                    mask: u64::MAX,
                    ptr: Src::Arg(0),
                    dst: 0,
                },
                guard(9, 2),
                Op::GuardStore {
                    site: Some(SiteId(11)),
                    gaddr: Src::Arg(0),
                    gsize: Src::Imm(4),
                    gflags: Src::Imm(2),
                    size: 4,
                    mask: u64::MAX,
                    val: Src::Reg(0),
                    ptr: Src::Arg(0),
                },
                guard(7, 1),
                Op::Ret(Some(Src::Reg(0))),
            ],
            edges: Vec::new(),
        }
    }

    fn module() -> CompiledModule {
        CompiledModule::new("m".into(), vec![guard_func()])
    }

    fn spec(site: u32, lo: u64, hi: u64) -> (SiteId, Region) {
        let region = Region::new(VAddr(lo), Size(hi - lo), Protection::READ_WRITE).unwrap();
        (SiteId(site), region)
    }

    fn grant(tier: &PromotedTier, site: u32) -> Option<Grant> {
        tier.grant(SiteId(site)).copied()
    }

    #[test]
    fn an_op_is_104_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 104);
    }

    #[test]
    fn promote_bakes_the_given_sites_and_only_they() {
        let m = module();
        let empty = m.promoted_tier();
        assert_eq!(empty.gen, 0);
        assert!((0..16).all(|s| grant(&empty, s).is_none()));

        let id = m.tier_id();
        let (a, b) = (spec(7, 0x1000, 0x2000), spec(11, 0x3000, 0x4000));
        // Site 7 sits on two ops, site 11 on one; site 9 is not given.
        assert_eq!(m.promote(5, &[a, b]), 3, "counted per guard op");
        assert_ne!(m.tier_id(), id, "a publish stores a fresh id");
        let tier = m.promoted_tier();
        assert_eq!(tier.gen, 5);
        assert_eq!(m.promoted_generation(), 5);
        assert_eq!(
            grant(&tier, 7),
            Some(Grant {
                region: a.1,
                gen: 5
            })
        );
        assert_eq!(
            grant(&tier, 11),
            Some(Grant {
                region: b.1,
                gen: 5
            })
        );
        for unbaked in [0, 6, 8, 9, 10, 12, u32::MAX] {
            assert_eq!(grant(&tier, unbaked), None, "site {unbaked}");
        }
    }

    #[test]
    fn promoting_unknown_sites_publishes_nothing() {
        let m = module();
        assert_eq!(m.promote(3, &[spec(9, 0, 0x100)]), 1);
        let id = m.tier_id();
        // A site no op carries is skipped even beside a carried one ...
        assert_eq!(m.promote(4, &[spec(9, 0, 0x100), spec(999, 0, 0x100)]), 1);
        assert_eq!(grant(&m.promoted_tier(), 999), None);
        assert_ne!(m.tier_id(), id);
        // ... and on its own bakes nothing: the old tier and its id stay.
        let id = m.tier_id();
        assert_eq!(m.promote(5, &[spec(999, 0, 0x100)]), 0);
        assert_eq!(m.tier_id(), id, "nothing published");
        assert_eq!(m.promoted_generation(), 4);
        assert!(grant(&m.promoted_tier(), 9).is_some());
    }

    #[test]
    fn invalidate_drops_the_tier_and_clones_share_it() {
        let m = module();
        let alias = m.clone();
        m.promote(9, &[spec(9, 0x10, 0x20)]);
        assert_eq!(alias.promoted_generation(), 9, "clones share the tier");
        assert_eq!(alias.tier_id(), m.tier_id(), "and its id");
        let promoted_id = m.tier_id();
        let tier = alias.promoted_tier();

        alias.invalidate_promotions();
        assert!(m.tier_id() > promoted_id, "an invalidation is a publish");
        let empty = m.promoted_tier();
        assert_eq!(empty.gen, 0, "no policy runs the empty tier");
        assert_eq!(grant(&empty, 9), None);
        // A tier loaded before the invalidation stays whole for its
        // holder: same grants, same tags.
        assert_eq!(tier.gen, 9);
        assert_eq!(grant(&tier, 9).map(|g| g.gen), Some(9));
        // Re-promotion after invalidation works (lazy re-promote path).
        assert_eq!(m.promote(10, &[spec(9, 0x10, 0x20)]), 1);
        assert_eq!(alias.promoted_generation(), 10);
    }

    #[test]
    fn a_superseded_tier_is_freed_once_no_executor_holds_it() {
        let m = module();
        m.promote(5, &[spec(9, 0x10, 0x20)]);
        let promoted = Arc::downgrade(&m.promoted_tier());
        m.promote(6, &[spec(9, 0x10, 0x20)]);
        assert!(
            promoted.upgrade().is_none(),
            "a re-promote frees the tier it replaced"
        );
        let repromoted = Arc::downgrade(&m.promoted_tier());
        m.invalidate_promotions();
        assert!(
            repromoted.upgrade().is_none(),
            "an invalidation frees the tier it dropped"
        );
    }
}
