//! `fwd` and `fleet-churn`: native RX → parse → rewrite → TX forwarding
//! (`kop_net::run_forward`) through the e1000e driver model.
//!
//! The guarded instance runs over `GuardedMem<Arc<PolicyModule>>`, the
//! baseline over `DirectMem`; both forward the same seeded `FlowGen`
//! schedule in lockstep batches. `fwd` uses the least-privilege
//! datapath policy (a handful of regions). `fleet-churn` puts the same
//! datapath under one tenant policy that also carries a consolidated
//! fleet ruleset of 4,096 regions, and reloads the whole ruleset
//! (`replace_regions`, rules in a seeded shuffled order) at the start
//! of every guarded batch, inside the timed loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kop_core::{Protection, Region, Size, VAddr};
use kop_e1000e::{DirectMem, E1000Device, E1000Driver, FrameSink, GuardedMem, MemSpace};
use kop_net::{run_forward, FlowGen, ForwardReport};
use kop_policy::{DatapathGeometry, PolicyModule, StoreKind};

use crate::spans::{self, Name, TimedMem, TimedPolicy, TimedSink};
use crate::stats::{median, SplitMix};
use crate::{interleave, setup_due, setup_s, Config, Report, SETUP_SAMPLES};

/// Concurrent flows the generator draws from.
const FLOWS: usize = 512;
/// NAPI poll budget.
const BUDGET: u64 = 64;
/// Frames per timed `fwd` batch (about 0.6–1.5 ms).
const FWD_BATCH: u64 = 1024;
/// Frames per `fleet-churn` batch; each guarded batch starts with one
/// full ruleset reload.
const FLEET_BATCH: u64 = 4096;
/// The consolidated fleet: 256 modules × 16 disjoint 4 KiB regions,
/// laid out well below the driver's arena.
const FLEET_MODULES: u64 = 256;
const REGIONS_PER_MODULE: u64 = 16;
const REGION_STRIDE: u64 = 0x10_000;
const FLEET_BASE: u64 = 0x10_0000;
/// Distinct seeded rule orders the reloads cycle through.
const RELOAD_ORDERS: usize = 4;

type GuardedDrv = E1000Driver<GuardedMem<Arc<PolicyModule>>>;
type BaseDrv = E1000Driver<DirectMem>;

/// A `FrameSink` that audits forwarded sequence numbers exactly, one
/// batch window at a time (a bitset over the window, so memory and
/// per-frame cost stay flat however long the run), and folds each
/// frame's header, length and sequence into an order-sensitive digest
/// so the two builds' wire output can be compared without keeping it.
struct Ledger {
    /// First sequence of the open window.
    base: u64,
    seen: Vec<u64>,
    frames: u64,
    duplicates: u64,
    unsequenced: u64,
    /// Deliveries outside the open window (late or foreign frames).
    stray: u64,
    digest: u64,
}

impl Ledger {
    /// A ledger whose windows hold up to `window` sequences.
    fn new(window: u64) -> Ledger {
        Ledger {
            base: 0,
            seen: vec![0; window.div_ceil(64) as usize],
            frames: 0,
            duplicates: 0,
            unsequenced: 0,
            stray: 0,
            digest: 0,
        }
    }

    /// Close the window at `next` (the generator's next sequence):
    /// return how many sequences in it never arrived, and open the next.
    fn close(&mut self, next: u64) -> u64 {
        let len = next - self.base;
        let full = (len / 64) as usize;
        let mut have: u64 = self.seen[..full]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        if !len.is_multiple_of(64) {
            have += (self.seen[full] & ((1u64 << (len % 64)) - 1)).count_ones() as u64;
        }
        self.seen.fill(0);
        self.base = next;
        len - have
    }
}

impl FrameSink for Ledger {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames += 1;
        if frame.len() < 22 {
            self.unsequenced += 1;
            return;
        }
        let word = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
        let seq = word(14);
        let head = word(0) ^ word(6).rotate_left(17);
        self.digest = (self.digest ^ head ^ seq ^ ((frame.len() as u64) << 48))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
        let Some(off) = seq
            .checked_sub(self.base)
            .filter(|&o| o < self.seen.len() as u64 * 64)
        else {
            self.stray += 1;
            return;
        };
        let (w, bit) = ((off / 64) as usize, 1u64 << (off % 64));
        if self.seen[w] & bit != 0 {
            self.duplicates += 1;
        } else {
            self.seen[w] |= bit;
        }
    }
}

/// One side's forwarding totals, folded batch by batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    batches: u64,
    offered: u64,
    forwarded: u64,
    delivered: u64,
    wire_dropped: u64,
    unparseable: u64,
    polls: u64,
    /// Order-sensitive digest of every `ForwardReport`.
    reports: u64,
    /// Sequences missing from the ledger, summed over batch windows.
    missing: u64,
    /// Batches whose missing count differed from their wire drops.
    audit_misses: u64,
}

impl Tally {
    fn add(&mut self, rep: &ForwardReport, missing: u64) {
        self.batches += 1;
        self.offered += rep.offered;
        self.forwarded += rep.forwarded;
        self.delivered += rep.delivered;
        self.wire_dropped += rep.wire_dropped;
        self.unparseable += rep.unparseable;
        self.polls += rep.polls;
        self.missing += missing;
        self.audit_misses += u64::from(missing != rep.wire_dropped);
        let fields = [
            rep.offered,
            rep.accepted,
            rep.wire_dropped,
            rep.forwarded,
            rep.unparseable,
            rep.delivered,
            rep.irqs,
            rep.polls,
        ];
        for f in fields {
            self.reports = (self.reports ^ f)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
        }
    }
}

/// One forwarding batch on one side: run, close the ledger window,
/// fold the report.
fn forward_batch<M: MemSpace>(
    drv: &mut E1000Driver<M>,
    gen: &mut FlowGen,
    ledger: &mut Ledger,
    tally: &mut Tally,
    frames: u64,
) -> Result<(), String> {
    let rep = run_forward(drv, gen, ledger, frames, BUDGET).map_err(|e| e.to_string())?;
    let missing = ledger.close(gen.next_seq());
    tally.add(&rep, missing);
    Ok(())
}

/// The seeded inputs of one run.
struct Inputs {
    flow_seed: u64,
    /// Full rulesets in seeded shuffled operator orders (`fleet-churn`).
    orders: Vec<Vec<Region>>,
}

/// The driver's datapath geometry (a property of the fixed arena
/// layout, read once from a throwaway driver).
fn geometry() -> Result<DatapathGeometry, String> {
    let drv = E1000Driver::probe(DirectMem::with_defaults(E1000Device::default()))
        .map_err(|e| format!("geometry probe: {e}"))?;
    Ok(drv.datapath_geometry())
}

/// The consolidated fleet ruleset plus the datapath's own windows.
fn fleet_rules(geo: &DatapathGeometry) -> Vec<Region> {
    let mut rules = PolicyModule::datapath_policy(geo).regions();
    rules.extend((0..FLEET_MODULES * REGIONS_PER_MODULE).map(|k| {
        Region::new(
            VAddr(FLEET_BASE + k * REGION_STRIDE),
            Size(0x1000),
            Protection::READ_WRITE,
        )
        .expect("fleet region")
    }));
    rules
}

impl Inputs {
    fn new(seed: u64, fleet: bool, geo: &DatapathGeometry) -> Inputs {
        let mut rng = SplitMix::new(seed, 0x6677);
        let flow_seed = rng.next_u64();
        let orders = if fleet {
            let base = fleet_rules(geo);
            (0..RELOAD_ORDERS)
                .map(|_| {
                    let mut o = base.clone();
                    rng.shuffle(&mut o);
                    o
                })
                .collect()
        } else {
            Vec::new()
        };
        Inputs { flow_seed, orders }
    }
}

/// One brought-up pair of instances over a shared policy.
struct Pair {
    policy: Arc<PolicyModule>,
    guarded: GuardedDrv,
    base: BaseDrv,
}

/// The guarded system's policy: the datapath policy (`fwd`), or a
/// tenant policy holding the whole fleet ruleset (`fleet-churn`).
fn build_policy(geo: &DatapathGeometry, inputs: &Inputs) -> Result<Arc<PolicyModule>, String> {
    let Some(rules) = inputs.orders.first() else {
        return Ok(Arc::new(PolicyModule::datapath_policy(geo)));
    };
    let pm = PolicyModule::with_kind(StoreKind::Sorted);
    pm.replace_regions(rules.iter().copied())
        .map_err(|e| format!("fleet ruleset: {e}"))?;
    Ok(Arc::new(pm))
}

fn probe_up<M: MemSpace>(mem: M) -> Result<E1000Driver<M>, String> {
    let mut drv = E1000Driver::probe(mem).map_err(|e| format!("probe: {e}"))?;
    drv.up().map_err(|e| format!("up: {e}"))?;
    Ok(drv)
}

/// Policy build → probe/up of both drivers.
fn bring_up(geo: &DatapathGeometry, inputs: &Inputs) -> Result<(Pair, f64), String> {
    let t = Instant::now();
    let policy = build_policy(geo, inputs)?;
    let guarded = probe_up(GuardedMem::new(
        DirectMem::with_defaults(E1000Device::default()),
        Arc::clone(&policy),
    ))?;
    let base = probe_up(DirectMem::with_defaults(E1000Device::default()))?;
    Ok((
        Pair {
            policy,
            guarded,
            base,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// One set-up sample: the mean of `group` bring-ups (a single `fwd`
/// bring-up is a fraction of a millisecond).
fn setup_sample(geo: &DatapathGeometry, inputs: &Inputs, group: usize) -> Result<f64, String> {
    let mut total = 0.0;
    for _ in 0..group {
        total += bring_up(geo, inputs)?.1;
    }
    Ok(total / group as f64)
}

/// Time the flow generator alone on the run's seed: ns per frame.
fn flowgen_ns(seed: u64, frames: u64) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut gen = FlowGen::new(seed, FLOWS);
            let t = Instant::now();
            let mut left = frames;
            while left > 0 {
                let burst = gen.next_burst_capped(left as usize);
                left -= burst.len() as u64;
                std::hint::black_box(burst);
            }
            t.elapsed().as_nanos() as f64 / frames as f64
        })
        .collect();
    median(&runs)
}

/// Run `fwd` (`fleet` false) or `fleet-churn` (true).
pub fn run(cfg: &Config, fleet: bool) -> Result<Report, String> {
    let mut r = Report::default();
    let geo = geometry()?;
    let inputs = Inputs::new(cfg.seed, fleet, &geo);
    let batch = if fleet { FLEET_BATCH } else { FWD_BATCH };
    let group = if fleet { 2 } else { 16 };

    // The first bring-up is the instance the run times; the measured
    // set-up samples are further bring-ups spread over the run.
    let (pair, _) = bring_up(&geo, &inputs)?;
    let Pair {
        policy,
        guarded: mut gd,
        base: mut bd,
    } = pair;
    let budget = cfg.untraced_budget();
    let want = SETUP_SAMPLES;
    let mut setup: Vec<f64> = Vec::new();

    let mut ggen = FlowGen::new(inputs.flow_seed, FLOWS);
    let mut bgen = FlowGen::new(inputs.flow_seed, FLOWS);
    let (mut gled, mut bled) = (Ledger::new(batch), Ledger::new(batch));
    let (mut gt, mut bt) = (Tally::default(), Tally::default());
    let mut publish_ns: Vec<f64> = Vec::new();
    let counts_before = gd.counts();
    let policy_before = policy.stats();
    let publishes_before = policy.snapshot_publishes();
    let mut guarded_wall = Duration::ZERO;

    let timed = interleave(
        budget,
        || {
            let t = Instant::now();
            if fleet {
                let order = &inputs.orders[publish_ns.len() % RELOAD_ORDERS];
                let tp = Instant::now();
                policy
                    .replace_regions(order.iter().copied())
                    .map_err(|e| format!("reload: {e}"))?;
                publish_ns.push(tp.elapsed().as_nanos() as f64);
            }
            forward_batch(&mut gd, &mut ggen, &mut gled, &mut gt, batch)
                .map_err(|e| format!("guarded forward: {e}"))?;
            guarded_wall += t.elapsed();
            Ok(batch)
        },
        || {
            forward_batch(&mut bd, &mut bgen, &mut bled, &mut bt, batch)
                .map_err(|e| format!("baseline forward: {e}"))?;
            Ok(batch)
        },
        |elapsed| {
            if setup_due(setup.len(), want, elapsed, budget) {
                setup.push(setup_sample(&geo, &inputs, group)?);
            }
            Ok(())
        },
    )?;
    while setup.len() < want {
        setup.push(setup_sample(&geo, &inputs, group)?);
    }

    let frames = timed.pkts;
    let wire_drops = gt.wire_dropped;
    let counts = gd.counts().since(&counts_before);
    let ps = policy.stats();
    let checks = ps.checks - policy_before.checks;
    let denied = (ps.denied_no_match - policy_before.denied_no_match)
        + (ps.denied_insufficient - policy_before.denied_insufficient)
        + (ps.denied_malformed - policy_before.denied_malformed);
    let publishes = policy.snapshot_publishes() - publishes_before;

    r.attempted = gt.offered;
    r.failed = wire_drops + denied + gt.unparseable;
    r.set("pkt_ns", timed.pkt_ns());
    r.set("base_pkt_ns", timed.base_pkt_ns());
    r.set("setup_s", setup_s(&setup));
    r.set("guard.overhead_ns", timed.pkt_ns() - timed.base_pkt_ns());
    r.notes.push(timed.describe(&setup));

    let per = |v: u64| v as f64 / frames.max(1) as f64;
    r.set("policy.checks_per_pkt", per(checks));
    r.set("driver.guard_calls_per_pkt", per(counts.guard_calls));
    r.set("driver.ram_reads_per_pkt", per(counts.ram_reads));
    r.set("driver.ram_writes_per_pkt", per(counts.ram_writes));
    r.set("driver.mmio_reads_per_pkt", per(counts.mmio_reads));
    r.set("driver.mmio_writes_per_pkt", per(counts.mmio_writes));
    r.set("net.polls_per_pkt", per(gt.polls));
    r.set("net.wire_drops", wire_drops as f64);
    if fleet {
        let publish_total: f64 = publish_ns.iter().sum();
        r.set("policy.publish_us", median(&publish_ns) / 1e3);
        r.set(
            "policy.publish_share",
            publish_total / guarded_wall.as_nanos().max(1) as f64,
        );
        r.set("policy.publishes", publishes as f64);
    }

    // Correctness: lockstep reports, exact ledgers, identical wire
    // output, every guard reconciled with the policy, no denials.
    let c = &mut r.checks;
    c.expect(gt == bt, || {
        format!("builds diverged: guarded {gt:?}, baseline {bt:?}")
    });
    for (who, led, t) in [("guarded", &gled, &gt), ("baseline", &bled, &bt)] {
        c.expect(
            led.frames == t.forwarded && t.delivered == t.forwarded,
            || {
                format!(
                    "{who}: ledger saw {} frames, {} forwarded, {} delivered",
                    led.frames, t.forwarded, t.delivered
                )
            },
        );
        c.expect(led.duplicates + led.unsequenced + led.stray == 0, || {
            format!(
                "{who}: {} duplicates, {} unsequenced, {} stray",
                led.duplicates, led.unsequenced, led.stray
            )
        });
        c.expect(t.audit_misses == 0 && t.missing == t.wire_dropped, || {
            format!(
                "{who}: {} missing vs {} wire drops ({} batches off)",
                t.missing, t.wire_dropped, t.audit_misses
            )
        });
    }
    c.expect(gled.digest == bled.digest, || {
        "wire output differs between builds".into()
    });
    c.expect(checks == counts.guard_calls, || {
        format!(
            "policy counted {checks} checks, driver made {} guard calls",
            counts.guard_calls
        )
    });
    c.expect(
        counts.guard_calls
            == counts.ram_reads + counts.ram_writes + counts.mmio_reads + counts.mmio_writes,
        || "a CPU access on the datapath went unguarded".into(),
    );
    c.expect(denied == 0, || format!("{denied} guard denials"));
    if fleet {
        c.expect(publishes == publish_ns.len() as u64, || {
            format!("{publishes} publishes for {} reloads", publish_ns.len())
        });
        c.expect(policy.region_count() == inputs.orders[0].len(), || {
            "reloaded ruleset lost rules".into()
        });
    }

    if cfg.trace {
        r.set("net.flowgen_ns", flowgen_ns(inputs.flow_seed, batch * 16));
        traced_phase(cfg, &mut r, &geo, &inputs, fleet, timed.pkt_ns())?;
    }
    Ok(r)
}

/// The traced half of a `--trace 1` run: a fresh guarded instance whose
/// policy, memory space and sink are wrapped in span recorders.
fn traced_phase(
    cfg: &Config,
    r: &mut Report,
    geo: &DatapathGeometry,
    inputs: &Inputs,
    fleet: bool,
    untraced_pkt_ns: f64,
) -> Result<(), String> {
    let batch = if fleet { FLEET_BATCH } else { FWD_BATCH };
    let policy = build_policy(geo, inputs)?;
    let mut drv = probe_up(TimedMem(GuardedMem::new(
        DirectMem::with_defaults(E1000Device::default()),
        TimedPolicy(Arc::clone(&policy)),
    )))?;
    let mut gen = FlowGen::new(inputs.flow_seed, FLOWS);
    let mut ledger = Ledger::new(batch);
    spans::start(crate::SPAN_CAP);
    r.set("bench.span_ns", spans::empty_span_ns());
    spans::reset_totals();
    let mut reloads = 0usize;
    let mut tally = Tally::default();
    let traced = crate::traced_batches(cfg.traced_budget(), || {
        if fleet {
            let order = &inputs.orders[reloads % RELOAD_ORDERS];
            spans::span(Name::Publish, || {
                policy.replace_regions(order.iter().copied())
            })
            .map_err(|e| format!("reload: {e}"))?;
            reloads += 1;
        }
        let rep = spans::span(Name::Forward, || {
            run_forward(
                &mut drv,
                &mut gen,
                &mut TimedSink(&mut ledger),
                batch,
                BUDGET,
            )
        })
        .map_err(|e| format!("traced forward: {e}"))?;
        tally.add(&rep, ledger.close(gen.next_seq()));
        Ok(batch)
    })?;
    spans::stop();
    let check = spans::totals(Name::Check);
    r.set(
        "policy.check_ns",
        check.incl_ns as f64 / check.calls.max(1) as f64,
    );
    r.set(
        "net.forward_ns",
        spans::totals(Name::Forward).incl_ns as f64 / traced.pkts.max(1) as f64,
    );
    r.checks.expect(
        tally.audit_misses == 0 && ledger.duplicates + ledger.stray == 0 && ledger.frames > 0,
        || "traced run: ledger audit failed".into(),
    );
    r.set_self_times(&traced, untraced_pkt_ns);
    Ok(())
}
