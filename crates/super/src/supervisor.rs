//! The supervisor: watches the kernel's quarantine stream and
//! health signals, and re-insmods supervised modules from their cached
//! execution images under deterministic backoff.

use std::collections::BTreeMap;
use std::sync::Arc;

use kop_compiler::SignedModule;
use kop_core::{KernelError, KernelResult};
use kop_kernel::{Kernel, ModuleImage, ModuleLayout};

use crate::sm::{ModuleState, SuperConfig, SupervisorSm};

/// Everything needed to re-insert a module without recompiling:
/// the signed container (attestation re-verified on every restart), the
/// shared execution image, and the address layout to rebind at.
#[derive(Clone)]
pub struct CachedModule {
    /// The signed container the module was originally loaded from.
    pub signed: SignedModule,
    /// The execution image built at first insmod (bytecode pre-resolved
    /// against `layout`'s addresses; guard-site table kept alive so
    /// per-site trace counts reconcile across restarts).
    pub image: Arc<ModuleImage>,
    /// The address-space footprint to rebind at.
    pub layout: ModuleLayout,
}

struct Tenant {
    cached: CachedModule,
    sm: SupervisorSm,
    /// Virtual-clock tick at which the module was observed down
    /// (recovery-latency bookkeeping).
    down_since: Option<u64>,
}

/// Supervises a fleet of loaded modules: consumes [`Kernel`]
/// quarantine records (and explicit health strikes), schedules restarts
/// on a deterministic virtual clock, and escalates to permanent
/// [`ModuleState::Failed`] when the restart budget runs out.
///
/// Drive it by calling [`Supervisor::tick`] once per supervision round;
/// each tick advances the virtual clock by one.
pub struct Supervisor {
    cfg: SuperConfig,
    tenants: BTreeMap<String, Tenant>,
    clock: u64,
    quarantine_cursor: usize,
    recovery_latencies: Vec<u64>,
}

impl Supervisor {
    /// A supervisor with the given policy knobs.
    pub fn new(cfg: SuperConfig) -> Supervisor {
        Supervisor {
            cfg,
            tenants: BTreeMap::new(),
            clock: 0,
            quarantine_cursor: 0,
            recovery_latencies: Vec::new(),
        }
    }

    /// Put the loaded module `name` under supervision, caching its image
    /// and layout for restart. The signed container must be the one the
    /// module was loaded from.
    pub fn attach(
        &mut self,
        kernel: &Kernel,
        name: &str,
        signed: &SignedModule,
    ) -> KernelResult<()> {
        let m = kernel
            .module(name)
            .ok_or_else(|| KernelError::NoSuchModule(name.to_string()))?;
        let layout = m.layout.clone();
        if signed.content_hash() != layout.content_hash {
            return Err(KernelError::BadSignature(
                "attach: container does not match loaded module".into(),
            ));
        }
        self.tenants.insert(
            name.to_string(),
            Tenant {
                cached: CachedModule {
                    signed: signed.clone(),
                    image: Arc::clone(m.image()),
                    layout,
                },
                sm: SupervisorSm::new(self.cfg),
                down_since: None,
            },
        );
        Ok(())
    }

    /// Consume any new kernel quarantine records addressed to supervised
    /// modules. Called automatically by [`Self::tick`].
    pub fn observe(&mut self, kernel: &Kernel) {
        let records = kernel.quarantine_records();
        for rec in &records[self.quarantine_cursor.min(records.len())..] {
            if let Some(t) = self.tenants.get_mut(&rec.module) {
                t.sm.on_down();
                t.down_since.get_or_insert(self.clock);
            }
        }
        self.quarantine_cursor = records.len();
    }

    /// One supervision round: advance the virtual clock, fold in new
    /// quarantine records, and perform any restart that has come due.
    pub fn tick(&mut self, kernel: &mut Kernel) {
        self.clock += 1;
        self.observe(kernel);
        let now = self.clock;
        let mut finished_recoveries = Vec::new();
        for (name, t) in self.tenants.iter_mut() {
            let before = t.sm.state();
            if let Some(_attempt) = t.sm.poll(now) {
                match kernel.restart_module(&t.cached.signed, &t.cached.image, &t.cached.layout) {
                    Ok(()) => {
                        t.sm.on_restart_ok();
                        if let Some(down) = t.down_since.take() {
                            finished_recoveries.push(now - down);
                        }
                    }
                    Err(e) => {
                        kernel.printk(&format!(
                            "carat: supervisor: restart of '{name}' failed: {e}"
                        ));
                        t.sm.on_restart_err(now);
                    }
                }
            }
            let after = t.sm.state();
            if after != before {
                match after {
                    // `Running` was already mirrored by restart_module
                    // (with the restart count); `Quarantined` by the
                    // kernel's quarantine path.
                    ModuleState::Backoff { .. }
                    | ModuleState::Restarting { .. }
                    | ModuleState::Failed => {
                        kernel.lifecycle().set_state(name, &after.label());
                    }
                    _ => {}
                }
                if after == ModuleState::Failed {
                    kernel.printk(&format!(
                        "carat: supervisor: module '{name}' FAILED permanently after {} restart(s)",
                        t.sm.attempts()
                    ));
                }
            }
        }
        self.recovery_latencies.extend(finished_recoveries);
    }

    /// Current supervision state of `name`.
    pub fn state(&self, name: &str) -> Option<ModuleState> {
        self.tenants.get(name).map(|t| t.sm.state())
    }

    /// Restarts consumed by `name` so far.
    pub fn restarts(&self, name: &str) -> u32 {
        self.tenants.get(name).map_or(0, |t| t.sm.attempts())
    }

    /// Whether `name` has been declared permanently failed.
    pub fn failed(&self, name: &str) -> bool {
        self.state(name) == Some(ModuleState::Failed)
    }

    /// The cached container/image/layout for `name` (e.g. for a live
    /// upgrade to reuse).
    pub fn cached(&self, name: &str) -> Option<&CachedModule> {
        self.tenants.get(name).map(|t| &t.cached)
    }

    /// Ticks from observed-down to serving-again, one entry per
    /// completed recovery (the recovery-latency CDF's raw samples).
    pub fn recovery_latencies(&self) -> &[u64] {
        &self.recovery_latencies
    }

    /// The supervisor's virtual clock (ticks == [`Self::tick`] calls).
    pub fn clock(&self) -> u64 {
        self.clock
    }
}
