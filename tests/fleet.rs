//! FLEET torture: the stall-free loader and the namespaced policy
//! engine under combined load (DESIGN §3.19).
//!
//! The headline test stages 64 module instances concurrently through
//! [`carat_kop::kernel::ModuleStager`] — signature verification, layout
//! sealing, static proof, and guard-site assignment all off the kernel
//! lock — while multi-queue guarded forwarding runs against per-tenant
//! policies resolved through the kernel's `NamespaceStore`.
//! Invariants held throughout:
//!
//! * every staged module commits (64/64 loaded, then callable with live
//!   guards),
//! * every MQ forwarding round's ledger audit is exact (no duplicates,
//!   no unaccounted frames) and its guard calls reconcile one-for-one
//!   against the owning tenants' policy counters,
//! * an epoch bump of every tenant's policy mid-test reaches every
//!   tenant (zero stale grants observed once its generation is
//!   published).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::e1000e::{DirectMem, E1000Device, GuardedMem};
use carat_kop::interp::Interp;
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig, Verification};
use carat_kop::net::run_mq_forward;
use carat_kop::policy::PolicyModule;

const STORM_MODULES: usize = 64;
const TENANTS: usize = 4;

/// A module with a handful of guarded accesses — enough that every
/// committed instance exercises the guard path when called.
const STORM_SRC: &str = r#"
module "storm"
define i64 @work(ptr %buf) {
entry:
  store i64 1, ptr %buf
  %p1 = gep i64, ptr %buf, i64 1
  store i64 2, ptr %p1
  %a = load i64, ptr %buf
  %b = load i64, ptr %p1
  %s = add i64 %a, %b
  store i64 %s, ptr %p1
  ret i64 %s
}
"#;

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "fleet-torture")
}

fn boot() -> Kernel {
    Kernel::boot(
        Arc::new(PolicyModule::two_region_paper_policy()),
        vec![key()],
        KernelConfig {
            verification: Verification::SignatureAndStatic,
            ..KernelConfig::default()
        },
    )
}

#[test]
fn insmod_storm_under_mq_forwarding_holds_invariants() {
    let out = compile_module(
        parse_module(STORM_SRC).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .unwrap();
    let mut kernel = boot();
    for t in 0..TENANTS {
        kernel.set_module_policy(
            &format!("nic{t}"),
            Arc::new(PolicyModule::two_region_paper_policy()),
        );
    }
    let ns = Arc::clone(kernel.namespaces());
    let stager = Arc::new(kernel.stager());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let stager_threads = cores.clamp(2, 6);

    let next_idx = AtomicUsize::new(0);
    // Each tenant's generation after the mid-test publish (MAX: not yet).
    let swap_gen: [AtomicU64; TENANTS] = std::array::from_fn(|_| AtomicU64::new(u64::MAX));
    let published = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();

    let mq_rounds = std::thread::scope(|s| {
        // Stagers: the lock-free two thirds of insmod, in parallel.
        for _ in 0..stager_threads {
            let stager = Arc::clone(&stager);
            let out = &out;
            let next_idx = &next_idx;
            let tx = tx.clone();
            s.spawn(move || loop {
                let i = next_idx.fetch_add(1, Ordering::SeqCst);
                if i >= STORM_MODULES {
                    break;
                }
                let staged = stager
                    .stage(&out.signed, Some(&format!("storm{i}")))
                    .map_err(|e| e.err)
                    .expect("storm module stages clean");
                tx.send(staged).expect("main thread receives");
            });
        }
        drop(tx);

        // Forwarder: MQ rounds against namespaced tenants, concurrent
        // with the storm, continuing past the mid-test publish.
        let forwarder = {
            let ns = Arc::clone(&ns);
            let (swap_gen, published) = (&swap_gen, &published);
            s.spawn(move || {
                let mut rounds = 0u64;
                let mut seen_published = false;
                loop {
                    let tenants: Vec<Arc<PolicyModule>> =
                        (0..2).map(|qi| ns.resolve(&format!("nic{qi}"))).collect();
                    let before: Vec<u64> = tenants.iter().map(|p| p.stats().checks).collect();
                    let report = run_mq_forward(2, 120, 64, 9_000 + rounds, 64, |qi| {
                        GuardedMem::new(
                            DirectMem::with_defaults(E1000Device::default()),
                            Arc::clone(&tenants[qi]),
                        )
                    })
                    .expect("mq round");
                    assert!(report.all_clean(), "round {rounds}: ledger audit");
                    let delta: u64 = tenants
                        .iter()
                        .zip(&before)
                        .map(|(p, b)| p.stats().checks - b)
                        .sum();
                    assert_eq!(
                        delta,
                        report.guard_calls(),
                        "round {rounds}: per-tenant guard reconciliation"
                    );
                    // Stale-grant discipline: once a tenant's publish is
                    // out, every admit must observe a policy generation
                    // at or beyond it.
                    let done = published.load(Ordering::SeqCst);
                    for (qi, p) in tenants.iter().enumerate() {
                        let sg = swap_gen[qi].load(Ordering::SeqCst);
                        let stale = sg != u64::MAX && p.store_generation() < sg;
                        assert!(!stale, "round {rounds}: tenant {qi} missed the publish");
                    }
                    seen_published |= done;
                    rounds += 1;
                    if seen_published && rounds >= 2 {
                        return rounds;
                    }
                }
            })
        };

        // Main thread: the short reserve/commit sections, pipelined as
        // staged modules arrive.
        let mut committed = 0usize;
        for staged in rx {
            let res = kernel.reserve_module(&staged).expect("reserve");
            let lowered = staged.lower(&res, kernel.tracer());
            kernel.commit_module(staged, res, lowered).expect("commit");
            committed += 1;
        }
        assert_eq!(committed, STORM_MODULES);

        // A publish on every tenant mid-test: one epoch bump each.
        for (t, sg) in swap_gen.iter().enumerate() {
            let gen = kernel.policy_for(&format!("nic{t}")).bump_epoch();
            sg.store(gen, Ordering::SeqCst);
        }
        published.store(true, Ordering::SeqCst);

        forwarder.join().expect("forwarder")
    });
    assert!(mq_rounds >= 2, "forwarding ran alongside the storm");

    // All 64 instances are live modules with working guards.
    assert_eq!(kernel.modules().len(), STORM_MODULES);
    let buf = kernel.kmalloc(4 * 8).expect("buffer");
    for i in [0usize, 17, STORM_MODULES - 1] {
        let mut interp = Interp::new(&mut kernel).unwrap();
        let ret = interp
            .call(&format!("storm{i}"), "work", &[buf.raw()])
            .unwrap();
        assert_eq!(ret, Some(3), "storm{i} computes through guarded memory");
        assert!(interp.stats().guards > 0, "storm{i} executed live guards");
    }
}

#[test]
fn namespace_registration_is_monotone_and_falls_back_to_global() {
    let mut kernel = boot();
    let global = Arc::clone(kernel.policy());

    kernel.set_module_policy("a", Arc::new(PolicyModule::two_region_paper_policy()));
    kernel.set_module_policy("b", Arc::new(PolicyModule::two_region_paper_policy()));
    let ns = Arc::clone(kernel.namespaces());
    let gen = |m: &str| ns.get(m).expect("registered").store_generation();
    let (gen_a, gen_b) = (gen("a"), gen("b"));
    assert_ne!(gen_a, gen_b, "tenants never share a generation");
    assert!(!Arc::ptr_eq(&ns.resolve("a"), &ns.resolve("b")));

    // Re-registration (live upgrade) always brings a fresh generation —
    // stale cache tags keyed on the old policy can never match again.
    kernel.set_module_policy("a", Arc::new(PolicyModule::two_region_paper_policy()));
    assert!(gen("a") > gen_a.max(gen_b), "generations are never reused");

    // Removal falls back to the global policy.
    assert!(kernel.clear_module_policy("b"));
    assert!(
        !kernel.clear_module_policy("b"),
        "second removal is a no-op"
    );
    assert!(Arc::ptr_eq(&ns.resolve("b"), &global));
    assert_eq!(ns.len(), 1);
}
