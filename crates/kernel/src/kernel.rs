//! The simulated kernel: boot, memory, devices, policy wiring, panic
//! model, and the kernel log.

use std::sync::Arc;

use kop_compiler::CompilerKey;
use kop_core::layout::{DIRECT_MAP_BASE, MODULE_SPACE_BASE, PAGE_SIZE};
use kop_core::{KernelError, KernelResult, VAddr, Violation};
use kop_policy::{NamespaceStore, PolicyCmd, PolicyModule};
use kop_trace::{Producer, TraceEvent, Tracer};

use crate::chardev::DevRegistry;
use crate::lifecycle::LifecycleState;
use crate::loader::LoadedModule;
use crate::mem::SimMemory;
use crate::symbols::{Symbol, SymbolKind, SymbolTable, Visibility};

/// How the loader decides a module is properly guarded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Verification {
    /// Trust the compiler signature alone (the paper's base design).
    #[default]
    Signature,
    /// *Prove* guard coverage by running the `kop-analysis` dataflow
    /// verifier over the shipped IR at insmod time. A module that proves
    /// clean is accepted — and granted private-symbol trust — even when
    /// its signature does not verify; a guard-stripped module is refused
    /// no matter who signed it.
    Static,
    /// Require both: a trusted signature *and* a clean static proof.
    SignatureAndStatic,
    /// Require neither — Linux's default without signature enforcement:
    /// a module whose signature does not verify still loads, untrusted
    /// for private symbols, and no proof runs.
    Unenforced,
}

impl Verification {
    /// Whether this mode runs the static verifier at insmod time.
    pub fn runs_static(self) -> bool {
        matches!(
            self,
            Verification::Static | Verification::SignatureAndStatic
        )
    }

    /// Whether this mode insists on a trusted signature.
    pub fn needs_signature(self) -> bool {
        matches!(
            self,
            Verification::Signature | Verification::SignatureAndStatic
        )
    }
}

/// Kernel boot configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Additionally require the strict guard layout (every access
    /// immediately preceded by its guard). Off by default because the
    /// optimized ablation builds legitimately violate it.
    pub require_strict_guards: bool,
    /// How guard coverage is established at insmod time.
    pub verification: Verification,
    /// Bytes reserved for the kernel heap (kmalloc arena in the direct
    /// map).
    pub heap_size: u64,
    /// Guard violations tolerated per module before the kernel
    /// quarantines (force-unloads) it. Only consulted when a policy runs
    /// with `ViolationAction::Quarantine`; the paper's Panic action
    /// ignores it. Must be ≥ 1 — the violation that reaches the budget is
    /// the one that triggers the unload.
    pub violation_budget: u32,
    /// Profiled checks a guard site needs before [`Kernel::tick`]
    /// promotes it into the inline-bounds tier (default 1024). Explicit
    /// [`Kernel::promote_hot`] calls pass their own threshold.
    pub hot_threshold: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            require_strict_guards: false,
            verification: Verification::Signature,
            heap_size: 64 << 20,
            violation_budget: 3,
            hot_threshold: 1024,
        }
    }
}

/// One quarantined module: who, how many violations it burned, and the
/// violation that tipped the budget. The kernel keeps these for post-mortem
/// inspection (the analogue of an Oops record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Name of the unloaded module.
    pub module: String,
    /// Total guard violations charged to it (== the budget at unload).
    pub violations: u32,
    /// The final violation, the one that exhausted the budget.
    pub last: Violation,
}

/// The path of the policy module's control device.
pub const CARAT_DEV: &str = "/dev/carat";

/// The path of the kop-trace control device (the tracefs analogue:
/// `tracing_on`, `trace`, `top`, `counters`, `perfetto`, `clear`).
pub const TRACE_DEV: &str = "/dev/trace";

/// The simulated kernel.
pub struct Kernel {
    /// Simulated memory (RAM + MMIO windows).
    pub mem: SimMemory,
    /// Exported symbols.
    pub symbols: SymbolTable,
    /// Character devices.
    pub devices: DevRegistry,
    config: KernelConfig,
    policy: Arc<PolicyModule>,
    trusted_keys: Vec<CompilerKey>,
    modules: Vec<LoadedModule>,
    dmesg: Vec<String>,
    panic: Option<KernelError>,
    module_space_cursor: VAddr,
    heap_base: VAddr,
    heap_cursor: VAddr,
    heap_end: VAddr,
    /// Model-specific registers (the state privileged intrinsics touch).
    msrs: std::collections::BTreeMap<u64, u64>,
    /// Whether maskable interrupts are enabled (cli/sti state).
    interrupts_enabled: bool,
    /// Per-module policy namespaces (§5: "determine if a *given* kernel
    /// module has access"), sharded by module id so concurrent insmod
    /// registrations contend on different locks. Modules without a
    /// namespace of their own fall back to the global policy (bound to
    /// namespace id [`kop_policy::GLOBAL_NAMESPACE`] at boot).
    namespaces: Arc<NamespaceStore>,
    /// Registered VFS files (§5 object protection).
    pub(crate) files: Vec<crate::objects::FileHandle>,
    /// Registered IPC queues (§5 object protection).
    pub(crate) queues: Vec<crate::objects::QueueHandle>,
    /// Guard violations charged per module (quarantine accounting).
    violations: std::collections::BTreeMap<String, u32>,
    /// Modules force-unloaded after exhausting their violation budget.
    quarantined: Vec<QuarantineRecord>,
    /// Dispatch aliases: calls addressed to the alias resolve to the
    /// target instance (live upgrade swaps point the stable name at the
    /// new version here).
    aliases: std::collections::BTreeMap<String, String>,
    /// Operator-visible lifecycle registry, shared with `/dev/trace`.
    lifecycle: Arc<LifecycleState>,
    /// The kernel-wide trace instance (always present, disabled until
    /// `echo 1 > tracing_on` via [`TRACE_DEV`] or [`Tracer::set_enabled`]).
    tracer: Arc<Tracer>,
    /// Modules whose promoted tier is subscribed to their policy's
    /// generation publishes, with that policy's namespace id (each
    /// publish atomically drops the tier, so stale promoted code is
    /// discarded promptly — the per-op generation check already
    /// guarantees it could never admit). A promotion under a different
    /// policy subscribes to it anew. Cleared on restart so the fresh
    /// image re-subscribes.
    hot_subscribed: std::collections::BTreeMap<String, u64>,
    /// Names reserved by an in-flight staged insmod
    /// ([`Kernel::reserve_module`]) but not yet committed. A second
    /// insmod of the same name races the short reserve section, not the
    /// expensive verify/lower phases.
    pub(crate) pending: std::collections::BTreeSet<String>,
}

impl Kernel {
    /// Boot a kernel with the given policy module and trusted compiler
    /// keys. Registers `/dev/carat` wired to the policy module and
    /// privately exports `carat_guard`.
    pub fn boot(
        policy: Arc<PolicyModule>,
        trusted_keys: Vec<CompilerKey>,
        config: KernelConfig,
    ) -> Kernel {
        // Enforce the documented `violation_budget ≥ 1` invariant at the
        // boundary: a budget of 0 could never charge the violation that
        // triggers the unload, so it is clamped (and logged below).
        let mut config = config;
        let budget_clamped = config.violation_budget == 0;
        if budget_clamped {
            config.violation_budget = 1;
        }
        let mut devices = DevRegistry::new();
        let pm = Arc::clone(&policy);
        devices.register(
            CARAT_DEV,
            Box::new(move |req| {
                let cmd =
                    PolicyCmd::decode(req).map_err(|e| KernelError::BadIoctl(e.to_string()))?;
                Ok(cmd.apply(&pm).encode())
            }),
        );
        let tracer = Tracer::new();
        // The policy's guard counters live in the tracer's unified
        // registry from boot, so `counters` shows them alongside driver
        // counters without a second stats path.
        policy.register_counters(tracer.counters());
        let lifecycle = LifecycleState::new();
        let tc = Arc::clone(&tracer);
        let lc = Arc::clone(&lifecycle);
        devices.register(
            TRACE_DEV,
            Box::new(move |req| {
                let text = std::str::from_utf8(req)
                    .map_err(|_| KernelError::BadIoctl("trace request not utf-8".into()))?;
                // The lifecycle command is answered from the shared
                // registry; everything else is tracefs business.
                let mut parts = text.split_whitespace();
                if parts.next() == Some("lifecycle") {
                    let reply = match (parts.next(), parts.next()) {
                        (None, _) => lc.render(),
                        (Some(module), None) => lc.render_module(module),
                        (Some(_), Some(_)) => {
                            return Err(KernelError::BadIoctl(format!(
                                "malformed lifecycle request {:?}; usage: lifecycle [MODULE]",
                                text.trim()
                            )))
                        }
                    };
                    return Ok(reply.into_bytes());
                }
                kop_trace::control::handle(&tc, text)
                    .map(String::into_bytes)
                    .map_err(KernelError::BadIoctl)
            }),
        );

        let mut symbols = SymbolTable::new();
        // The single symbol the policy module provides (§3.1), privately
        // exported (§2).
        symbols.export(Symbol {
            name: "carat_guard".into(),
            kind: SymbolKind::Function,
            visibility: Visibility::Private,
            addr: VAddr(kop_core::layout::KERNEL_TEXT_BASE + 0x1000),
            provider: "policy".into(),
        });
        // The §5 extension: the intrinsic-guard entry point, also private.
        symbols.export(Symbol {
            name: "carat_intrinsic_guard".into(),
            kind: SymbolKind::Function,
            visibility: Visibility::Private,
            addr: VAddr(kop_core::layout::KERNEL_TEXT_BASE + 0x1040),
            provider: "policy".into(),
        });
        // Privileged intrinsics themselves resolve as kernel-provided
        // builtins (their *use* is controlled by attestation + the
        // intrinsic policy, not by symbol visibility).
        for (i, name) in kop_compiler::attest::PRIVILEGED_INTRINSICS
            .iter()
            .enumerate()
        {
            symbols.export(Symbol {
                name: (*name).into(),
                kind: SymbolKind::Function,
                visibility: Visibility::Public,
                addr: VAddr(kop_core::layout::KERNEL_TEXT_BASE + 0x3000 + (i as u64) * 0x40),
                provider: "kernel".into(),
            });
        }
        // A few ordinary kernel exports modules commonly import.
        for (i, name) in ["printk", "kmalloc", "kfree", "panic"].iter().enumerate() {
            symbols.export(Symbol {
                name: (*name).into(),
                kind: SymbolKind::Function,
                visibility: Visibility::Public,
                addr: VAddr(kop_core::layout::KERNEL_TEXT_BASE + 0x2000 + (i as u64) * 0x40),
                provider: "kernel".into(),
            });
        }

        // The heap starts 1 GiB into the direct map.
        let heap_base = VAddr(DIRECT_MAP_BASE + (1 << 30));
        // Binds the global policy to namespace id 1; per-module policies
        // get fresh ids as they register.
        let namespaces = Arc::new(NamespaceStore::new(Arc::clone(&policy)));
        let mut kernel = Kernel {
            mem: SimMemory::new(),
            symbols,
            devices,
            policy,
            trusted_keys,
            modules: Vec::new(),
            dmesg: Vec::new(),
            panic: None,
            module_space_cursor: VAddr(MODULE_SPACE_BASE),
            heap_base,
            heap_cursor: heap_base,
            heap_end: VAddr(heap_base.raw() + config.heap_size),
            config,
            msrs: std::collections::BTreeMap::new(),
            interrupts_enabled: true,
            namespaces,
            files: Vec::new(),
            queues: Vec::new(),
            violations: std::collections::BTreeMap::new(),
            quarantined: Vec::new(),
            aliases: std::collections::BTreeMap::new(),
            lifecycle,
            tracer,
            hot_subscribed: std::collections::BTreeMap::new(),
            pending: std::collections::BTreeSet::new(),
        };
        kernel.printk("CARAT KOP simulated kernel booted");
        kernel.printk(&format!("policy store: {}", kernel.policy.store_kind()));
        if budget_clamped {
            kernel.printk("carat: violation_budget 0 is invalid, clamped to 1");
        }
        kernel
    }

    /// Boot with defaults: table-backed policy, one trusted key.
    pub fn boot_default() -> (Kernel, CompilerKey) {
        let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
        let policy = Arc::new(PolicyModule::new());
        let kernel = Kernel::boot(policy, vec![key.clone()], KernelConfig::default());
        (kernel, key)
    }

    /// The (global) policy module.
    pub fn policy(&self) -> &Arc<PolicyModule> {
        &self.policy
    }

    /// The kernel-wide tracer. Always present; costs one relaxed atomic
    /// load per emission site until enabled.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The operator-visible lifecycle registry (also served by the
    /// `/dev/trace` `lifecycle` command).
    pub fn lifecycle(&self) -> &Arc<LifecycleState> {
        &self.lifecycle
    }

    /// Point dispatch for `alias` at the loaded instance `target`: calls
    /// addressed to `alias` resolve to `target` from now on. The live
    /// upgrade's swap step — one map write, after the policy epoch bump.
    pub fn set_dispatch_alias(&mut self, alias: &str, target: &str) -> KernelResult<()> {
        if self.modules.iter().all(|m| m.name != target) {
            return Err(KernelError::NoSuchModule(target.to_string()));
        }
        self.printk(&format!("carat: dispatch '{alias}' -> '{target}'"));
        self.aliases.insert(alias.to_string(), target.to_string());
        Ok(())
    }

    /// Remove a dispatch alias; returns whether one existed.
    pub fn clear_dispatch_alias(&mut self, alias: &str) -> bool {
        self.aliases.remove(alias).is_some()
    }

    /// The instance `name` currently dispatches to, if aliased.
    pub fn dispatch_target(&self, name: &str) -> Option<&str> {
        self.aliases.get(name).map(String::as_str)
    }

    /// Install a per-module policy override: guards executed by `module`
    /// consult this policy instead of the global one. This is how an
    /// operator gives, say, a perf-monitoring module MSR access while the
    /// NIC driver keeps a tight memory-only policy.
    pub fn set_module_policy(&mut self, module: &str, policy: Arc<PolicyModule>) {
        let ns = self.namespaces.register(module, policy);
        self.printk(&format!(
            "policy: per-module override for '{module}' (namespace {ns})"
        ));
        // The promoted tier baked its bounds from the *previous* policy
        // object. Its namespace id already keeps it from running under
        // the new one; drop it and the old policy's subscription, so the
        // next `tick()` bakes from the new policy. (A native guard front
        // is bound to one policy object for life, so it never answers
        // for the new one.)
        self.drop_promotions(module);
    }

    /// Remove a per-module override; returns whether one existed.
    pub fn clear_module_policy(&mut self, module: &str) -> bool {
        let had = self.namespaces.remove(module).is_some();
        if had {
            // As in `set_module_policy`: the module now answers to the
            // global policy.
            self.drop_promotions(module);
        }
        had
    }

    /// The sharded per-module policy namespace registry. Shared with
    /// check-path holders (`Arc`): resolving a module's policy never
    /// takes a kernel-wide lock.
    pub fn namespaces(&self) -> &Arc<NamespaceStore> {
        &self.namespaces
    }

    /// Fleet-wide revocation: advance the revocation epoch of the global
    /// policy and every registered namespace, so every filled grant on
    /// every fast path (guard-front slots, promoted inline bounds) goes
    /// stale at once — without republishing a single ruleset. Returns
    /// how many policies were bumped.
    pub fn revoke_fleet(&mut self) -> usize {
        let n = self.namespaces.revoke_all();
        self.printk(&format!("carat: fleet revocation, {n} polic(ies) bumped"));
        n
    }

    /// Invalidate `module`'s promoted trace tier and forget its
    /// generation subscription, so the next promotion re-bakes bounds
    /// from (and re-subscribes to) the now-governing policy.
    fn drop_promotions(&mut self, module: &str) {
        if let Some(loaded) = self.module(module) {
            loaded.image().compiled.invalidate_promotions();
        }
        self.forget_hot_subscription(module);
    }

    /// The policy governing `module`: its own namespace if registered,
    /// else the global policy. One shard read-lock.
    pub fn policy_for(&self, module: &str) -> Arc<PolicyModule> {
        self.namespaces.resolve(module)
    }

    /// The boot configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Profile-directed promotion: re-lower `module`'s hot guard sites
    /// into the inline-bounds tier.
    ///
    /// Sites with at least `min_hits` profiled checks — and not a single
    /// denial — are mapped through their observed address envelope onto
    /// the covering region of the *current* policy snapshot; that
    /// region's `[lo, hi)` bound and permission bits are baked into
    /// promoted copies of the containing functions as immediate
    /// compares, tagged with the snapshot generation. Before installing,
    /// the kernel audits its own work: the inline obligations are run
    /// through the independent translation validator with the policy's
    /// retained-snapshot grant oracle, so a bound the validator cannot
    /// recompute from the cited generation is refused (KA009–KA011).
    ///
    /// A later `bump_epoch`/`replace_regions` publish atomically drops
    /// the tier (and every promoted op independently rechecks the
    /// generation, so a stale bound can never admit). Promotion is lazy
    /// after that: call this again — or let [`Kernel::tick`] do it —
    /// once the profile warrants it.
    ///
    /// Returns the number of guard ops promoted (0 when nothing is hot or
    /// the module is unguarded).
    pub fn promote_hot(&mut self, module: &str, min_hits: u64) -> KernelResult<usize> {
        let loaded = self
            .module(module)
            .ok_or_else(|| KernelError::NoSuchModule(module.to_string()))?;
        let image = Arc::clone(loaded.image());
        let Some(sites) = image.sites.as_ref() else {
            return Ok(0);
        };
        let compiled = &image.compiled;

        // Hot-site selection: the tracer's profile, envelope required.
        let hot: Vec<_> = self
            .tracer()
            .hot_sites(min_hits)
            .into_iter()
            .filter(|(m, p)| m.module == module && p.lo_addr < p.hi_addr)
            .collect();
        if hot.is_empty() {
            return Ok(0);
        }

        // Map each site id back to its guard call so the obligation can
        // cite it (same deterministic walk the loader registered from).
        let mut guard_of = std::collections::BTreeMap::new();
        for gs in kop_trace::assign_guard_sites(&image.ir) {
            if let Some(id) = sites.lookup(&gs.function, gs.inst) {
                guard_of.insert(id, gs);
            }
        }

        // Bake bounds from the current snapshot. The revocation epoch is
        // read *before* the snapshot: a fleet revocation racing the bake
        // leaves the tier already-stale (per-op epoch mismatch, prompt
        // deopt), never falsely fresh. The tier records the policy's
        // namespace id, and runs only for calls that policy governs.
        let policy = self.policy_for(module);
        let ns = policy.namespace();
        let epoch = policy.revocation_epoch();
        let snap = policy.policy_snapshot();
        let gen = snap.generation();
        let mut specs = Vec::new();
        let mut obligations = Vec::new();
        for (meta, prof) in &hot {
            let Some(gs) = guard_of.get(&meta.id) else {
                continue;
            };
            let Some(guard) = inst_ref_of(&image.ir, &gs.function, gs.inst) else {
                continue;
            };
            // The covering grant for the whole observed envelope; a site
            // straddling regions (or outside every region) stays cold.
            let Some(region) = snap.regions().iter().find(|r| {
                r.base.raw() <= prof.lo_addr
                    && prof.hi_addr <= r.base.raw().saturating_add(r.len.raw())
            }) else {
                continue;
            };
            let lo = region.base.raw();
            let hi = region.base.raw().saturating_add(region.len.raw());
            let perm = region.prot.granted().raw();
            specs.push(kop_vm::PromotionSpec {
                site: meta.id,
                lo,
                hi,
                perm,
            });
            obligations.push(kop_analysis::Obligation::Inline {
                function: gs.function.clone(),
                guard,
                lo,
                hi,
                flags: perm as u64,
                gen,
                env_lo: prof.lo_addr,
                env_hi: prof.hi_addr,
            });
        }
        if specs.is_empty() {
            return Ok(0);
        }

        // Self-validation before install: the independent validator must
        // re-derive every baked bound from the retained snapshot history.
        let ledger = kop_analysis::ObligationLedger { obligations };
        let grants = |g: u64| policy.regions_at(g);
        let report = kop_analysis::validate_module_with_grants(&image.ir, &ledger, Some(&grants));
        if !report.is_clean() {
            let first = report
                .errors()
                .next()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "inline obligations rejected".into());
            let err = KernelError::StaticVerification(format!(
                "promotion refused: {first} ({} error(s) total)",
                report.errors().count()
            ));
            self.printk(&format!("carat-jit {module}: {err}"));
            return Err(err);
        }

        let n = compiled.promote(ns, gen, epoch, &specs);
        if n == 0 {
            return Ok(0);
        }
        // One subscription per module image and governing policy: any
        // publish of that policy drops the tier wholesale.
        if self.hot_subscribed.insert(module.to_string(), ns) != Some(ns) {
            let tier = compiled.clone();
            policy.subscribe_generation(Box::new(move |_gen| {
                tier.invalidate_promotions();
            }));
        }
        let sites_promoted = specs.len();
        self.printk(&format!(
            "carat-jit {module}: promoted {n} guard op(s) across {sites_promoted} site(s) at generation {gen}"
        ));
        Ok(n)
    }

    /// Periodic promotion sweep: runs [`Kernel::promote_hot`] over every
    /// loaded module at the configured
    /// [`KernelConfig::hot_threshold`]. Modules whose inline ledger the
    /// validator refuses are skipped (the refusal is in dmesg); the
    /// sweep never fails. Returns the total guard ops promoted.
    pub fn tick(&mut self) -> usize {
        let names: Vec<String> = self.modules.iter().map(|m| m.name.clone()).collect();
        let threshold = self.config.hot_threshold;
        names
            .iter()
            .map(|n| self.promote_hot(n, threshold).unwrap_or(0))
            .sum()
    }

    /// Trusted compiler keys (loader uses these to verify signatures).
    pub(crate) fn trusted_keys(&self) -> &[CompilerKey] {
        &self.trusted_keys
    }

    /// Append to the kernel log.
    pub fn printk(&mut self, msg: &str) {
        self.dmesg.push(msg.to_string());
    }

    /// The kernel log.
    pub fn dmesg(&self) -> &[String] {
        &self.dmesg
    }

    /// Record a kernel panic (first one wins, as on real hardware where
    /// the machine stops). Returns the panic error for propagation.
    pub fn do_panic(&mut self, err: KernelError) -> KernelError {
        self.printk(&format!("{err}"));
        if self.panic.is_none() {
            self.panic = Some(err.clone());
        }
        err
    }

    /// Whether the kernel has panicked, and why.
    pub fn panicked(&self) -> Option<&KernelError> {
        self.panic.as_ref()
    }

    /// Charge a guard violation against `module`'s quarantine budget.
    ///
    /// Under budget, the violation is logged and `Ok(())` returned — the
    /// caller squashes the access and execution continues. When the
    /// charge reaches [`KernelConfig::violation_budget`], the module is
    /// quarantined: force-unloaded (the `rmmod` path: symbol unlink, text
    /// unprotect, per-module policy revoke), a [`QuarantineRecord`]
    /// appended, and `Err(KernelError::ModuleQuarantined)` returned. The
    /// kernel does **not** panic — this is the oops-not-panic posture.
    pub fn note_violation(&mut self, module: &str, v: Violation) -> KernelResult<()> {
        let count = {
            let c = self.violations.entry(module.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        let budget = self.config.violation_budget.max(1);
        self.printk(&format!(
            "carat: guard violation by '{module}' ({count}/{budget}): {v}"
        ));
        self.tracer.record(
            Producer::Kernel,
            TraceEvent::Violation {
                module: module.to_string(),
                addr: v.addr.raw(),
            },
        );
        if count < budget {
            return Ok(());
        }
        Err(self.quarantine_module(module, v, count))
    }

    /// Force-unload `module` after `count` violations, record the
    /// quarantine, and return the error the offending call unwinds with.
    fn quarantine_module(&mut self, module: &str, v: Violation, count: u32) -> KernelError {
        self.printk(&format!(
            "Oops: quarantining module '{module}' after {count} guard violation(s)"
        ));
        if let Some(m) = self.take_module(module) {
            self.mem.protect_readwrite(m.text_base, m.text_size);
            self.symbols.remove_provider(module);
        }
        self.clear_module_policy(module);
        let record = QuarantineRecord {
            module: module.to_string(),
            violations: count,
            last: v,
        };
        self.lifecycle.note_quarantine(&record);
        self.quarantined.push(record);
        self.printk(&format!(
            "carat: module '{module}' unloaded; kernel continues"
        ));
        self.tracer.record(
            Producer::Kernel,
            TraceEvent::ModuleQuarantine {
                module: module.to_string(),
                violations: count as u64,
            },
        );
        KernelError::ModuleQuarantined {
            module: module.to_string(),
            violation: v,
        }
    }

    /// Quarantine records, oldest first.
    pub fn quarantine_records(&self) -> &[QuarantineRecord] {
        &self.quarantined
    }

    /// Whether `module` has been quarantined.
    pub fn is_quarantined(&self, module: &str) -> bool {
        self.quarantined.iter().any(|r| r.module == module)
    }

    /// Guard violations charged to `module` so far.
    pub fn violation_count(&self, module: &str) -> u32 {
        self.violations.get(module).copied().unwrap_or(0)
    }

    /// Zero `module`'s violation charge — a restarted module gets a
    /// fresh budget, or its first post-restart violation would instantly
    /// re-quarantine it.
    pub(crate) fn reset_violations(&mut self, module: &str) {
        self.violations.remove(module);
    }

    /// Fail with `KernelError::Panic` if the kernel has already panicked —
    /// callers use this to model "the machine is down".
    pub fn check_alive(&self) -> KernelResult<()> {
        match &self.panic {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Allocate `size` bytes from the kernel heap (kmalloc). Returns a
    /// direct-map address. The arena is a bump allocator — modules in this
    /// simulation never free enough to matter, and kfree is a no-op apart
    /// from logging.
    pub fn kmalloc(&mut self, size: u64) -> KernelResult<VAddr> {
        if self.mem.hook_fail_kmalloc(size) {
            return Err(KernelError::NoMemory(format!(
                "kmalloc of {size} bytes failed (injected fault)"
            )));
        }
        let aligned = size.div_ceil(16) * 16;
        let addr = self.heap_cursor;
        let next = VAddr(
            addr.raw()
                .checked_add(aligned)
                .ok_or_else(|| KernelError::NoMemory("heap wrap".into()))?,
        );
        if next > self.heap_end {
            return Err(KernelError::NoMemory(format!(
                "kmalloc of {size} bytes exhausts heap"
            )));
        }
        self.heap_cursor = next;
        Ok(addr)
    }

    /// Free a kmalloc'd allocation (no-op bump allocator; logged).
    pub fn kfree(&mut self, addr: VAddr) {
        debug_assert!(addr >= self.heap_base && addr < self.heap_end);
    }

    /// Bytes currently allocated from the heap.
    pub fn heap_used(&self) -> u64 {
        self.heap_cursor.raw() - self.heap_base.raw()
    }

    /// Reserve `size` bytes of module space (page-aligned).
    pub(crate) fn alloc_module_space(&mut self, size: u64) -> KernelResult<VAddr> {
        let aligned = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = self.module_space_cursor;
        let next = base.raw() + aligned;
        if next > MODULE_SPACE_BASE + kop_core::layout::MODULE_SPACE_SIZE {
            return Err(KernelError::NoMemory("module space exhausted".into()));
        }
        self.module_space_cursor = VAddr(next);
        Ok(base)
    }

    /// The loaded-module list (lsmod).
    pub fn modules(&self) -> &[LoadedModule] {
        &self.modules
    }

    /// Find a loaded module by name. A name with no direct match follows
    /// one level of dispatch alias (the live-upgrade indirection).
    pub fn module(&self, name: &str) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.name == name).or_else(|| {
            let target = self.aliases.get(name)?;
            self.modules.iter().find(|m| &m.name == target)
        })
    }

    pub(crate) fn push_module(&mut self, m: LoadedModule) {
        self.modules.push(m);
    }

    pub(crate) fn take_module(&mut self, name: &str) -> Option<LoadedModule> {
        let idx = self.modules.iter().position(|m| m.name == name)?;
        Some(self.modules.remove(idx))
    }

    /// Issue an ioctl from "user space".
    pub fn ioctl(&self, dev: &str, request: &[u8]) -> KernelResult<Vec<u8>> {
        self.check_alive()?;
        self.devices.ioctl(dev, request)
    }

    /// Write a model-specific register (the `__wrmsr` builtin).
    pub fn wrmsr(&mut self, msr: u64, value: u64) {
        self.msrs.insert(msr, value);
    }

    /// Read a model-specific register (the `__rdmsr` builtin).
    pub fn rdmsr(&self, msr: u64) -> u64 {
        self.msrs.get(&msr).copied().unwrap_or(0)
    }

    /// Disable maskable interrupts (the `__cli` builtin).
    pub fn cli(&mut self) {
        self.interrupts_enabled = false;
    }

    /// Enable maskable interrupts (the `__sti` builtin).
    pub fn sti(&mut self) {
        self.interrupts_enabled = true;
    }

    /// Whether maskable interrupts are enabled.
    pub fn interrupts_enabled(&self) -> bool {
        self.interrupts_enabled
    }

    /// Forget a module's promotion subscription (restart/upgrade installs
    /// a fresh image whose tier must subscribe anew).
    pub(crate) fn forget_hot_subscription(&mut self, module: &str) {
        self.hot_subscribed.remove(module);
    }
}

/// Locate a guard call's `(block, index)` reference — the citation an
/// inline obligation carries — from its arena instruction id.
fn inst_ref_of(ir: &kop_ir::Module, function: &str, inst: u32) -> Option<kop_analysis::InstRef> {
    let f = ir.function(function)?;
    for b in &f.blocks {
        if let Some(index) = b.insts.iter().position(|iid| iid.0 == inst) {
            return Some(kop_analysis::InstRef {
                block: b.name.clone(),
                index,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::{AccessFlags, Protection, Region, Size};
    use kop_policy::PolicyResponse;

    #[test]
    fn boot_exports_guard_privately() {
        let (kernel, _) = Kernel::boot_default();
        let guard = kernel.symbols.get("carat_guard").unwrap();
        assert_eq!(guard.visibility, Visibility::Private);
        assert!(kernel.symbols.resolve("carat_guard", false).is_none());
        assert!(kernel.symbols.resolve("carat_guard", true).is_some());
        assert!(kernel.dmesg()[0].contains("booted"));
    }

    #[test]
    fn carat_ioctl_controls_policy() {
        let (kernel, _) = Kernel::boot_default();
        let region = Region::new(
            VAddr(0xffff_8880_0000_0000),
            Size(0x1000),
            Protection::READ_WRITE,
        )
        .unwrap();
        let resp = kernel
            .ioctl(CARAT_DEV, &PolicyCmd::AddRegion(region).encode())
            .unwrap();
        assert_eq!(PolicyResponse::decode(&resp).unwrap(), PolicyResponse::Ok);
        assert_eq!(kernel.policy().region_count(), 1);
        assert!(kernel
            .policy()
            .check(VAddr(0xffff_8880_0000_0800), Size(8), AccessFlags::RW)
            .is_ok());
    }

    #[test]
    fn bad_ioctl_payload_rejected() {
        let (kernel, _) = Kernel::boot_default();
        assert!(matches!(
            kernel.ioctl(CARAT_DEV, &[0xee, 0xff]).unwrap_err(),
            KernelError::BadIoctl(_)
        ));
    }

    #[test]
    fn kmalloc_bump_and_exhaustion() {
        let key = CompilerKey::from_passphrase("k", "s");
        let policy = Arc::new(PolicyModule::new());
        let mut kernel = Kernel::boot(
            policy,
            vec![key],
            KernelConfig {
                heap_size: 1024,
                ..KernelConfig::default()
            },
        );
        let a = kernel.kmalloc(100).unwrap();
        let b = kernel.kmalloc(100).unwrap();
        assert!(b.raw() >= a.raw() + 100);
        assert!(a.is_kernel_half());
        assert_eq!(kernel.heap_used(), 224); // 2 × 112 (16-aligned)
        assert!(matches!(
            kernel.kmalloc(2048).unwrap_err(),
            KernelError::NoMemory(_)
        ));
    }

    #[test]
    fn quarantine_budget_unloads_without_panicking() {
        use kop_core::error::ViolationKind;
        let (mut kernel, _) = Kernel::boot_default();
        let v = Violation::new(
            VAddr(0x100),
            Size(8),
            AccessFlags::READ,
            ViolationKind::NoMatchingRegion,
        );
        // Default budget is 3: two warnings, third strike unloads.
        assert!(kernel.note_violation("rogue", v).is_ok());
        assert!(kernel.note_violation("rogue", v).is_ok());
        let err = kernel.note_violation("rogue", v).unwrap_err();
        assert!(matches!(err, KernelError::ModuleQuarantined { .. }));
        // The kernel survives — this is an oops, not a panic.
        assert!(kernel.panicked().is_none());
        assert!(kernel.check_alive().is_ok());
        assert!(kernel.is_quarantined("rogue"));
        assert_eq!(kernel.violation_count("rogue"), 3);
        assert_eq!(kernel.quarantine_records().len(), 1);
        assert_eq!(kernel.quarantine_records()[0].last, v);
        assert!(kernel.dmesg().iter().any(|l| l.contains("Oops")));
    }

    #[test]
    fn violation_budget_zero_clamped_at_boot() {
        use kop_core::error::ViolationKind;
        let key = CompilerKey::from_passphrase("k", "s");
        let mut kernel = Kernel::boot(
            Arc::new(PolicyModule::new()),
            vec![key],
            KernelConfig {
                violation_budget: 0,
                ..KernelConfig::default()
            },
        );
        // The invariant holds after boot and the clamp is logged.
        assert_eq!(kernel.config().violation_budget, 1);
        assert!(kernel
            .dmesg()
            .iter()
            .any(|l| l.contains("violation_budget 0 is invalid")));
        // Budget 1: the very first violation quarantines.
        let v = Violation::new(
            VAddr(0x100),
            Size(8),
            AccessFlags::READ,
            ViolationKind::NoMatchingRegion,
        );
        assert!(kernel.note_violation("rogue", v).is_err());
        assert!(kernel.is_quarantined("rogue"));
        // Any budget ≥ 1 passes through untouched.
        let (kernel, _) = Kernel::boot_default();
        assert_eq!(kernel.config().violation_budget, 3);
    }

    #[test]
    fn lifecycle_chardev_reports_quarantine() {
        use kop_core::error::ViolationKind;
        let (mut kernel, _) = Kernel::boot_default();
        let empty = kernel.ioctl(TRACE_DEV, b"lifecycle").unwrap();
        assert_eq!(empty, b"no modules tracked");
        let v = Violation::new(
            VAddr(0x100),
            Size(8),
            AccessFlags::READ,
            ViolationKind::NoMatchingRegion,
        );
        for _ in 0..2 {
            let _ = kernel.note_violation("rogue", v);
        }
        assert!(kernel.note_violation("rogue", v).is_err());
        let out = kernel.ioctl(TRACE_DEV, b"lifecycle rogue").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("state=quarantined"), "{text}");
        assert!(text.contains("last_quarantine(violations=3"), "{text}");
        // Unknown module and the non-lifecycle path still work.
        let out = kernel.ioctl(TRACE_DEV, b"lifecycle ghost").unwrap();
        assert_eq!(out, b"ghost: unknown");
        assert!(kernel.ioctl(TRACE_DEV, b"tracing_on").is_ok());
        // A trailing word is refused, not silently ignored.
        for req in ["lifecycle a b", "lifecycle rogue rogue", "tracing_on 0 1"] {
            assert!(
                matches!(
                    kernel.ioctl(TRACE_DEV, req.as_bytes()),
                    Err(KernelError::BadIoctl(_))
                ),
                "{req:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// `lifecycle` takes at most one module name; any request,
        /// arbitrary text included, is answered or refused, never a
        /// panic.
        #[test]
        fn lifecycle_request_takes_at_most_one_module(
            words in proptest::collection::vec("\\PC{0,8}", 0..4),
            junk in "\\PC{0,24}",
        ) {
            let (kernel, _) = Kernel::boot_default();
            let req = format!("lifecycle {}", words.join(" "));
            let args = req.split_whitespace().count() - 1;
            let reply = kernel.ioctl(TRACE_DEV, req.as_bytes());
            proptest::prop_assert_eq!(reply.is_ok(), args <= 1, "{:?} -> {:?}", req, reply);
            let _ = kernel.ioctl(TRACE_DEV, junk.as_bytes());
        }
    }

    #[test]
    fn dispatch_alias_resolves_one_level() {
        let (mut kernel, _) = Kernel::boot_default();
        // Aliasing to an unloaded target is refused.
        assert!(matches!(
            kernel.set_dispatch_alias("nic", "nic#v2").unwrap_err(),
            KernelError::NoSuchModule(_)
        ));
        assert!(kernel.dispatch_target("nic").is_none());
        assert!(!kernel.clear_dispatch_alias("nic"));
    }

    #[test]
    fn panic_model() {
        let (mut kernel, _) = Kernel::boot_default();
        assert!(kernel.check_alive().is_ok());
        let err = KernelError::Panic {
            message: "guard check failed".into(),
            violation: None,
        };
        kernel.do_panic(err.clone());
        assert_eq!(kernel.panicked(), Some(&err));
        // The machine is down: ioctls fail.
        assert!(kernel.ioctl(CARAT_DEV, &PolicyCmd::List.encode()).is_err());
        // First panic wins.
        kernel.do_panic(KernelError::Panic {
            message: "second".into(),
            violation: None,
        });
        assert_eq!(kernel.panicked(), Some(&err));
        // Both are in the log.
        assert!(kernel.dmesg().iter().any(|l| l.contains("guard check")));
        assert!(kernel.dmesg().iter().any(|l| l.contains("second")));
    }
}
