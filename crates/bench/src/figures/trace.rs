use kop_e1000e::device::CountSink;
use kop_e1000e::GuardedMem;

use crate::setup;

use super::measure::{best_of, timed};
use super::quick;
use super::rig::{driver, unguarded};
use super::{FigureData, Series};

/// TRACE: what the kop-trace subsystem costs on the guarded TX path —
/// host wall-clock ns/packet for three configurations of the same
/// guarded driver (two-region policy, 128 B frames):
///
/// * `untraced`  — `GuardedMem::new`, no tracer attached at all;
/// * `tracing_off` — a tracer is wired in but disabled (the shipping
///   configuration: one relaxed atomic load per guard);
/// * `tracing_on` — per-site profiling of every guard, with ring events
///   and latency for the one in [`kop_trace::SAMPLE_EVERY`] it times.
///
/// Plus the per-site breakdown the enabled run collects (which arena
/// region the TX path's guards actually hit), reconciled against the
/// driver's own guard-call counter.
pub fn trace() -> FigureData {
    use kop_trace::Tracer;
    use std::sync::Arc;

    let (frames, repeats) = if quick() { (400u64, 5) } else { (4_000u64, 9) };
    let dst = [0xffu8; 6];
    let payload = [0u8; 114]; // 128 B on the wire with the header

    #[derive(Clone, Copy)]
    enum Config {
        Untraced,
        TracingOff,
        TracingOn,
    }
    // One timed pass over a fresh driver: (ns/packet, the pass's guard
    // calls, its tracer). A fresh tracer per pass: the kept profile
    // belongs to exactly one measured pass, so hits reconcile with that
    // pass's guards.
    let run_once = |config: Config| -> (f64, u64, Option<Arc<Tracer>>) {
        let policy = setup::two_region_policy();
        let tracer = match config {
            Config::Untraced => None,
            Config::TracingOff => Some(Tracer::new()),
            Config::TracingOn => Some(Tracer::with_capacity(kop_trace::DEFAULT_CAPACITY)),
        };
        let mem = match &tracer {
            Some(t) => GuardedMem::with_tracer(unguarded(), policy, Arc::clone(t)),
            None => GuardedMem::new(unguarded(), policy),
        };
        let mut drv = driver(mem);
        // Enable only now: the profiled window is exactly the measured
        // loop, so per-site hits reconcile with the guard-call delta.
        if let Some(t) = &tracer {
            t.set_enabled(matches!(config, Config::TracingOn));
        }
        let mut sink = CountSink::default();
        let before = drv.counts();
        let ((), ns) = timed(|| {
            for _ in 0..frames {
                drv.xmit_and_flush(dst, 0x88b5, &payload, &mut sink)
                    .expect("xmit");
            }
        });
        let guard_calls = drv.counts().since(&before).guard_calls;
        (ns / frames as f64, guard_calls, tracer)
    };
    let [(untraced_ns, _, _), (off_ns, _, _), (on_ns, guard_calls, on_tracer)] = best_of(
        [Config::Untraced, Config::TracingOff, Config::TracingOn],
        repeats,
        run_once,
        |(ns, _, _)| *ns,
    );
    let on_tracer = on_tracer.expect("the enabled pass keeps its tracer");

    let total_checks = on_tracer.total_checks();
    assert_eq!(
        total_checks, guard_calls,
        "per-site profile totals must reconcile with the driver's guard counter"
    );

    // Per-site breakdown from the kept enabled run, which holds the
    // sampling rule exactly: with no denial, a site's timed checks are
    // its 1st, 17th, 33rd… hits.
    let mut site_points = Vec::new();
    let mut site_notes = Vec::new();
    let mut timed_checks = 0;
    for (i, (meta, prof)) in on_tracer.profile_snapshot().into_iter().enumerate() {
        assert_eq!(prof.denied, 0, "{}: the pass denies nothing", meta.label);
        assert_eq!(
            prof.timed(),
            prof.hits.div_ceil(kop_trace::SAMPLE_EVERY),
            "{}: one check in SAMPLE_EVERY is timed",
            meta.label
        );
        timed_checks += prof.timed();
        site_points.push((i as f64, prof.hits as f64));
        site_notes.push(format!(
            "site {} = {}/{}: hits {} ({:.1}%), mean {:.0} ns, timed {} of {}",
            i,
            meta.module,
            meta.label,
            prof.hits,
            100.0 * prof.hits as f64 / total_checks.max(1) as f64,
            prof.mean_ns(),
            prof.timed(),
            prof.hits
        ));
    }
    // The driver's events: a GuardEnter/GuardExit pair per timed check
    // and one Xmit per frame.
    assert_eq!(
        on_tracer.seq(kop_trace::Producer::Driver),
        2 * timed_checks + frames,
        "the ring holds one event pair per timed check"
    );

    let off_overhead = off_ns / untraced_ns - 1.0;
    let on_overhead = on_ns / untraced_ns - 1.0;
    assert!(
        off_overhead < 0.02,
        "disabled tracing must cost <2% on the guarded TX path (measured {:.2}%)",
        off_overhead * 100.0
    );
    let mut notes = vec![
        "tracing_off is the shipping configuration: the only added work per guard is one relaxed atomic load".into(),
        "expected: tracing_off within noise of untraced (<2%); tracing_on pays a per-site tally per guard, and ring events + clock reads for the timed ones".into(),
    ];
    notes.extend(site_notes);

    FigureData {
        id: "trace",
        title: "kop-trace overhead on the guarded TX path (host wall-clock) + per-site breakdown"
            .into(),
        axes: ("site index", "guard hits"),
        series: vec![
            Series {
                label: "site_hits".into(),
                points: site_points,
            },
            Series {
                label: "ns_per_packet".into(),
                points: vec![(0.0, untraced_ns), (1.0, off_ns), (2.0, on_ns)],
            },
        ],
        headlines: vec![
            ("untraced_ns_pkt".into(), untraced_ns),
            ("tracing_off_ns_pkt".into(), off_ns),
            ("tracing_on_ns_pkt".into(), on_ns),
            ("tracing_off_overhead_frac".into(), off_overhead),
            ("tracing_on_overhead_frac".into(), on_overhead),
            ("profiled_checks".into(), total_checks as f64),
            ("driver_guard_calls".into(), guard_calls as f64),
        ],
        notes,
    }
}
