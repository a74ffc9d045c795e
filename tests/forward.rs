//! End-to-end: the echo/forwarding datapath survives a quarantine.
//!
//! A guarded forwarding worker (RX DMA → NAPI polls → parse → rewrite →
//! TX) and a multi-queue guarded TX fleet run concurrently over one
//! shared policy module while a rootkit-style module probes forbidden
//! memory from the interpreter (on the production engine). The offender
//! must be quarantined mid-run; forwarding and TX must not drop,
//! duplicate, or reorder a single frame, proven by ledger audit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::core::{KernelError, Size, VAddr};
use carat_kop::e1000e::device::E1000Device;
use carat_kop::e1000e::{mq, DirectMem, E1000Driver, GuardedMem};
use carat_kop::interp::Interp;
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::net::{FlowGen, LedgerSink};
use carat_kop::policy::{PolicyModule, ViolationAction};

/// A scanner that reads one forbidden word per call — the same shape as
/// the credscan rootkit, kept minimal: violation budget is 3, so the
/// third call quarantines it.
const PROBE_SRC: &str = r#"
module "probe"
define i64 @peek(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %w = load i64, ptr %p
  ret i64 %w
}
"#;

const SECRET_ADDR: u64 = 0x0060_0000;
const CHUNKS: u64 = 8;
const PER_CHUNK: u64 = 120;
const FLOWS: usize = 256;
const BUDGET: u64 = 64;
const MQ_QUEUES: usize = 2;
const MQ_FRAMES: u64 = 400;

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "carat-kop-dev")
}

#[test]
fn forwarding_continues_through_a_concurrent_quarantine() {
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::Quarantine);

    let mut kernel = Kernel::boot(policy.clone(), vec![key()], KernelConfig::default());
    kernel
        .mem
        .write_uint(VAddr(SECRET_ADDR), Size(8), 0xdead_beef_cafe_f00d)
        .expect("plant secret");
    let module = parse_module(PROBE_SRC).expect("parse");
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).expect("compile");
    kernel.insmod(&out.signed).expect("insmod");

    // Forwarding-side progress counter so the main thread can seed the
    // violation genuinely mid-run (after some forwarding, before it ends).
    let fwd_progress = Arc::new(AtomicU64::new(0));

    let (fwd, mq_report, quarantined_after) = std::thread::scope(|s| {
        // The echo/forwarding worker: its own NIC, the shared policy.
        let fwd_handle = {
            let policy = Arc::clone(&policy);
            let progress = Arc::clone(&fwd_progress);
            s.spawn(move || {
                let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), policy);
                let mut drv = E1000Driver::probe(mem).expect("probe fwd");
                drv.up().expect("up fwd");
                let mut gen = FlowGen::new(4_242, FLOWS);
                let mut ledger = LedgerSink::new();
                let mut forwarded = 0u64;
                let mut dropped = 0u64;
                for _ in 0..CHUNKS {
                    let rep = carat_kop::net::run_forward(
                        &mut drv,
                        &mut gen,
                        &mut ledger,
                        PER_CHUNK,
                        BUDGET,
                    )
                    .expect("forwarding must keep working through the quarantine");
                    assert_eq!(rep.forwarded, rep.accepted);
                    forwarded += rep.forwarded;
                    dropped += rep.wire_dropped;
                    progress.fetch_add(1, Ordering::SeqCst);
                }
                let guard_calls = drv.counts().guard_calls;
                (forwarded, dropped, ledger, guard_calls)
            })
        };

        // The multi-queue TX fleet, sharing the same policy module.
        let mq_handle = {
            let policy = Arc::clone(&policy);
            s.spawn(move || {
                mq::run_mq_tx(MQ_QUEUES, MQ_FRAMES, 256, |_q| Arc::clone(&policy))
                    .expect("mq tx under shared policy")
            })
        };

        // Main thread: wait until forwarding is demonstrably underway,
        // then exhaust the probe module's violation budget.
        while fwd_progress.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let mut quarantined_after = None;
        {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            for attempt in 1u32..=3 {
                match interp.call("probe", "peek", &[SECRET_ADDR]) {
                    Ok(Some(w)) => {
                        assert_eq!(w, 0, "squashed probe must never see the secret");
                        assert!(attempt < 3, "budget must be exhausted by the third probe");
                    }
                    Err(KernelError::ModuleQuarantined { module, violation }) => {
                        assert_eq!(module, "probe");
                        assert_eq!(violation.addr, VAddr(SECRET_ADDR));
                        quarantined_after = Some(attempt);
                    }
                    other => panic!("unexpected probe outcome: {other:?}"),
                }
            }
        }

        let fwd = fwd_handle.join().expect("forwarding worker");
        let mq_report = mq_handle.join().expect("mq tx worker");
        (fwd, mq_report, quarantined_after)
    });

    // The offender died mid-run; the kernel did not.
    assert_eq!(quarantined_after, Some(3), "third probe quarantines");
    assert!(kernel.panicked().is_none());
    kernel.check_alive().expect("kernel keeps running");
    assert!(kernel.is_quarantined("probe"));
    assert!(kernel.module("probe").is_none(), "offender unloaded");

    // Forwarding never missed a beat: exact ledger audit across every
    // chunk, spanning the quarantine.
    let (forwarded, dropped, ledger, fwd_guards) = fwd;
    assert!(forwarded > 0);
    assert_eq!(ledger.frames, forwarded, "every forwarded frame delivered");
    assert_eq!(ledger.duplicates, 0, "zero duplicated frames");
    assert_eq!(ledger.unsequenced, 0);
    assert_eq!(
        ledger.missing(CHUNKS * PER_CHUNK).len() as u64,
        dropped,
        "every missing sequence is a counted wire drop"
    );

    // The TX fleet delivered everything it offered.
    assert_eq!(mq_report.delivered(), MQ_QUEUES as u64 * MQ_FRAMES);

    // Every guard from both datapaths (and the probe's squashed
    // accesses) reached the one shared policy.
    assert!(fwd_guards > 0 && mq_report.guard_calls() > 0);
    assert!(policy.stats().checks >= fwd_guards + mq_report.guard_calls());
    assert_eq!(kernel.violation_count("probe"), 3, "budget recorded");
}

#[test]
fn forwarding_is_engine_independent_under_the_shared_policy() {
    // The forwarding datapath itself is native: whichever engine runs
    // the modules, a forwarding run on the shared policy reconciles
    // exactly with the driver's guard count.
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let before = policy.stats().checks;
    let mem = GuardedMem::new(
        DirectMem::with_defaults(E1000Device::default()),
        Arc::clone(&policy),
    );
    let mut drv = E1000Driver::probe(mem).expect("probe");
    drv.up().expect("up");
    let mut gen = FlowGen::new(7, 64);
    let mut ledger = LedgerSink::new();
    let rep = carat_kop::net::run_forward(&mut drv, &mut gen, &mut ledger, 200, 32).expect("fwd");
    assert_eq!(rep.forwarded, rep.accepted);
    assert_eq!(ledger.duplicates, 0);
    assert_eq!(
        policy.stats().checks - before,
        drv.counts().guard_calls,
        "policy saw exactly the driver's guards"
    );
}
