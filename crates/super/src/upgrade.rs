//! Zero-downtime live upgrade: load v2 alongside v1, drain v1's
//! in-flight work (bounded), swap dispatch atomically behind a policy
//! snapshot generation bump, and only then unload v1.
//!
//! Ordering is the whole protocol:
//!
//! 1. **Load v2** under a fresh instance name (`name#v2`, `name#v3`, …).
//!    All attestation and static checks run exactly as at first insmod;
//!    v1 keeps serving throughout.
//! 2. **Drain v1** for at most [`UpgradeOptions::drain_ticks`] device
//!    ticks. Whatever is still undelivered after the budget is *migrated*
//!    — pulled off v1's queues for the caller to resubmit through v2 —
//!    rather than waited on forever (a wedged device must not block the
//!    upgrade).
//! 3. **Swap dispatch** (`alias → v2` is one map write), then **bump the
//!    policy snapshot generation**. Any admit decision still holding a
//!    pre-swap snapshot is now detectably stale: its generation is below
//!    the post-swap generation, so stale grants cannot be admitted after
//!    the swap is visible.
//! 4. **Unload v1.** Its queues are empty or migrated, dispatch no longer
//!    resolves to it, and its policy snapshot generation is dead.

use kop_compiler::SignedModule;
use kop_core::{KernelError, KernelResult};
use kop_kernel::Kernel;
use kop_trace::{Producer, TraceEvent};

/// How an upgrade reaches the outgoing instance's in-flight work.
///
/// The supervisor crate cannot depend on any particular device model, so
/// the caller lends it a port: `drain` runs the device forward, `pending`
/// reports undelivered frames, and `migrate` pulls whatever is left off
/// the queues for resubmission through the successor.
pub trait DrainPort {
    /// Run the outgoing instance's device for up to `max_ticks` ticks,
    /// delivering whatever it can. Returns frames delivered.
    fn drain(&mut self, max_ticks: u64) -> u64;
    /// Frames still queued but undelivered.
    fn pending(&self) -> u64;
    /// Remove all undelivered frames from the queues and return their
    /// bytes, in submission order. Delivered frames must not appear here
    /// (they would be duplicated on resubmission).
    fn migrate(&mut self) -> Vec<Vec<u8>>;
}

/// A port for modules with no drainable device state.
pub struct NoDrain;

impl DrainPort for NoDrain {
    fn drain(&mut self, _max_ticks: u64) -> u64 {
        0
    }
    fn pending(&self) -> u64 {
        0
    }
    fn migrate(&mut self) -> Vec<Vec<u8>> {
        Vec::new()
    }
}

/// Knobs for [`upgrade_module`].
#[derive(Clone, Copy, Debug)]
pub struct UpgradeOptions {
    /// Device-tick budget for the drain phase; work still pending after
    /// this is forcibly migrated.
    pub drain_ticks: u64,
}

impl Default for UpgradeOptions {
    fn default() -> Self {
        UpgradeOptions { drain_ticks: 256 }
    }
}

/// What an upgrade did.
#[derive(Clone, Debug)]
pub struct UpgradeReport {
    /// Instance name the new version was loaded as (dispatch for the
    /// module name now resolves here).
    pub instance: String,
    /// Frames the outgoing instance delivered during the drain phase.
    pub drained: u64,
    /// Undelivered frames forcibly migrated off the outgoing instance;
    /// the caller must resubmit them through the successor (in order,
    /// before new traffic) to preserve zero-loss.
    pub migrated: Vec<Vec<u8>>,
    /// Policy snapshot generation published by the post-swap epoch bump;
    /// grants older than this are stale.
    pub generation: u64,
}

/// First unused upgrade instance name for `name`: `name#v2`, `name#v3`, …
fn next_instance_name(kernel: &Kernel, name: &str) -> String {
    (2..)
        .map(|k| format!("{name}#v{k}"))
        .find(|candidate| kernel.module(candidate).is_none())
        .expect("unbounded instance namespace")
}

/// Upgrade the module serving `name` to `signed_v2` with zero downtime.
/// See the module docs for the protocol; `drain` is the port to the
/// outgoing instance's device (use [`NoDrain`] for pure-compute modules).
///
/// On success, dispatch for `name` resolves to the returned
/// [`UpgradeReport::instance`] and the outgoing instance is unloaded.
/// On any error before the swap, v1 is left serving untouched.
pub fn upgrade_module(
    kernel: &mut Kernel,
    name: &str,
    signed_v2: &SignedModule,
    drain: &mut dyn DrainPort,
    opts: UpgradeOptions,
) -> KernelResult<UpgradeReport> {
    // Resolve the instance actually serving `name` (this may itself be a
    // previous upgrade's `name#v2`).
    let outgoing = kernel.dispatch_target(name).unwrap_or(name).to_string();
    if kernel.module(&outgoing).is_none() {
        return Err(KernelError::NoSuchModule(outgoing));
    }

    // 1. Load v2 alongside; v1 keeps serving.
    let instance = next_instance_name(kernel, name);
    kernel.insmod_named(signed_v2, &instance)?;

    // 2. Bounded drain, then forced migration of the remainder.
    let drained = drain.drain(opts.drain_ticks);
    let migrated = if drain.pending() > 0 {
        drain.migrate()
    } else {
        Vec::new()
    };

    // Carry any per-module policy override to the successor so the swap
    // does not widen (or narrow) what guards admit.
    let outgoing_policy = kernel.policy_for(&outgoing);
    if !std::sync::Arc::ptr_eq(&outgoing_policy, kernel.policy()) {
        kernel.set_module_policy(&instance, outgoing_policy);
    }

    // 3. Swap dispatch, then bump the policy epoch: grants snapshotted
    // before this line carry a lower generation and are refused admission.
    kernel.set_dispatch_alias(name, &instance)?;
    let generation = kernel.policy_for(&instance).bump_epoch();
    kernel.tracer().record(
        Producer::Loader,
        TraceEvent::UpgradeSwap {
            module: name.to_string(),
            instance: instance.clone(),
            generation,
        },
    );
    kernel.printk(&format!(
        "carat: upgraded '{name}' -> '{instance}' (epoch {generation}, drained {drained}, migrated {})",
        migrated.len()
    ));

    // 4. v1 is invisible to dispatch and its grants are stale: unload.
    if outgoing != instance {
        kernel.rmmod(&outgoing)?;
    }

    Ok(UpgradeReport {
        instance,
        drained,
        migrated,
        generation,
    })
}
