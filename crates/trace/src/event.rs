//! Typed trace events and the producers that emit them.
//!
//! Every event in the ring buffer is a [`TraceRecord`]: a [`TraceEvent`]
//! stamped with a virtual-clock timestamp, the emitting [`Producer`], and
//! that producer's sequence number. The event set mirrors the layers of
//! the simulated kernel: guard checks (hot path — no allocation), module
//! lifecycle, driver datapath, and fault injection.

use core::fmt;

use crate::sites::SiteId;

/// Who emitted an event. One fixed track per subsystem, so sequence
/// numbers and drop counters are attributable (like ftrace's per-CPU
/// buffers, but per-layer since the sim is single-threaded per kernel).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Producer {
    /// Core kernel: boot, panic, quarantine machinery.
    Kernel,
    /// Module loader (`insmod`/`rmmod`).
    Loader,
    /// The KIR interpreter executing module code.
    Interp,
    /// The policy module (violation decisions).
    Policy,
    /// The e1000e driver datapath.
    Driver,
    /// The simulated NIC device model.
    Device,
    /// The fault-injection layer.
    Faultline,
    /// Benchmark / harness code.
    Bench,
}

impl Producer {
    /// All producers, in track order.
    pub const ALL: [Producer; 8] = [
        Producer::Kernel,
        Producer::Loader,
        Producer::Interp,
        Producer::Policy,
        Producer::Driver,
        Producer::Device,
        Producer::Faultline,
        Producer::Bench,
    ];

    /// Number of producer tracks.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for per-producer arrays.
    pub fn index(self) -> usize {
        match self {
            Producer::Kernel => 0,
            Producer::Loader => 1,
            Producer::Interp => 2,
            Producer::Policy => 3,
            Producer::Driver => 4,
            Producer::Device => 5,
            Producer::Faultline => 6,
            Producer::Bench => 7,
        }
    }

    /// Stable display name (used as the perfetto thread name).
    pub fn name(self) -> &'static str {
        match self {
            Producer::Kernel => "kernel",
            Producer::Loader => "loader",
            Producer::Interp => "interp",
            Producer::Policy => "policy",
            Producer::Driver => "driver",
            Producer::Device => "device",
            Producer::Faultline => "faultline",
            Producer::Bench => "bench",
        }
    }
}

impl fmt::Display for Producer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a guard check, as seen by the caller of the policy module.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuardDecision {
    /// Access permitted.
    Allowed,
    /// Access denied (squash / log-and-deny).
    Denied,
    /// Access denied and the module was quarantined.
    Quarantined,
    /// Access denied and the policy demanded a kernel panic.
    Panicked,
}

impl GuardDecision {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            GuardDecision::Allowed => "allowed",
            GuardDecision::Denied => "denied",
            GuardDecision::Quarantined => "quarantined",
            GuardDecision::Panicked => "panicked",
        }
    }

    /// True for every outcome except [`GuardDecision::Allowed`].
    pub fn is_denied(self) -> bool {
        !matches!(self, GuardDecision::Allowed)
    }
}

/// A typed trace event. Hot-path variants (guard enter/exit) carry only
/// `Copy` data; cold-path lifecycle events may allocate.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A guard check is about to run at `site`.
    GuardEnter {
        /// Guard site being checked.
        site: SiteId,
    },
    /// The guard check at `site` finished.
    GuardExit {
        /// Guard site that was checked.
        site: SiteId,
        /// The policy's decision.
        decision: GuardDecision,
        /// Host-measured check latency in nanoseconds.
        ns: u64,
    },
    /// A policy violation was observed (denied access).
    Violation {
        /// Offending module.
        module: String,
        /// Faulting virtual address.
        addr: u64,
    },
    /// A module was linked into the kernel.
    ModuleLoad {
        /// Module name.
        module: String,
        /// Number of guard sites registered for it.
        guard_sites: u64,
    },
    /// A module was unloaded.
    ModuleUnload {
        /// Module name.
        module: String,
    },
    /// A module was forcibly quarantined after exhausting its violation
    /// budget.
    ModuleQuarantine {
        /// Module name.
        module: String,
        /// Violations accumulated at quarantine time.
        violations: u64,
    },
    /// A quarantined (or health-failed) module was re-inserted from its
    /// cached image by the supervision layer.
    ModuleRestart {
        /// Module name.
        module: String,
        /// Which restart this is for the module (1-based).
        attempt: u64,
    },
    /// A live upgrade atomically swapped dispatch from one module
    /// instance to its successor.
    UpgradeSwap {
        /// The stable dispatch name being upgraded.
        module: String,
        /// The instance now receiving dispatch.
        instance: String,
        /// Policy snapshot generation published by the post-swap
        /// `bump_epoch`.
        generation: u64,
    },
    /// The driver queued a frame for transmit.
    Xmit {
        /// On-wire frame length in bytes.
        bytes: u64,
    },
    /// The driver harvested a complete received frame from the RX ring.
    RxFrame {
        /// On-wire frame length in bytes.
        bytes: u64,
    },
    /// The driver entered its interrupt handler with a non-zero cause.
    Irq {
        /// ICR cause bits as read (and cleared) at ISR entry.
        cause: u64,
    },
    /// One NAPI-style poll pass over the RX ring completed.
    PollPass {
        /// Descriptors harvested this pass (bounded by the budget).
        harvested: u64,
        /// Whether the ring was drained (interrupts re-enabled).
        drained: bool,
    },
    /// The TX watchdog ran.
    Watchdog {
        /// Whether this pass fired (declared the queue hung).
        fired: bool,
    },
    /// The driver performed a full reset.
    Reset,
    /// The fault layer injected a fault.
    FaultInjected {
        /// Which fault point fired.
        what: &'static str,
    },
}

impl TraceEvent {
    /// Short stable name (used as the perfetto event name for events that
    /// don't reference a guard site).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::GuardEnter { .. } => "guard_enter",
            TraceEvent::GuardExit { .. } => "guard_exit",
            TraceEvent::Violation { .. } => "violation",
            TraceEvent::ModuleLoad { .. } => "module_load",
            TraceEvent::ModuleUnload { .. } => "module_unload",
            TraceEvent::ModuleQuarantine { .. } => "module_quarantine",
            TraceEvent::ModuleRestart { .. } => "module_restart",
            TraceEvent::UpgradeSwap { .. } => "upgrade_swap",
            TraceEvent::Xmit { .. } => "xmit",
            TraceEvent::RxFrame { .. } => "rx_frame",
            TraceEvent::Irq { .. } => "irq",
            TraceEvent::PollPass { .. } => "poll_pass",
            TraceEvent::Watchdog { .. } => "watchdog",
            TraceEvent::Reset => "reset",
            TraceEvent::FaultInjected { .. } => "fault_injected",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::GuardEnter { site } => write!(f, "guard_enter site={}", site.0),
            TraceEvent::GuardExit { site, decision, ns } => {
                write!(
                    f,
                    "guard_exit site={} decision={} ns={}",
                    site.0,
                    decision.name(),
                    ns
                )
            }
            TraceEvent::Violation { module, addr } => {
                write!(f, "violation module={module} addr={addr:#x}")
            }
            TraceEvent::ModuleLoad {
                module,
                guard_sites,
            } => {
                write!(f, "module_load module={module} guard_sites={guard_sites}")
            }
            TraceEvent::ModuleUnload { module } => write!(f, "module_unload module={module}"),
            TraceEvent::ModuleQuarantine { module, violations } => {
                write!(
                    f,
                    "module_quarantine module={module} violations={violations}"
                )
            }
            TraceEvent::ModuleRestart { module, attempt } => {
                write!(f, "module_restart module={module} attempt={attempt}")
            }
            TraceEvent::UpgradeSwap {
                module,
                instance,
                generation,
            } => {
                write!(
                    f,
                    "upgrade_swap module={module} instance={instance} generation={generation}"
                )
            }
            TraceEvent::Xmit { bytes } => write!(f, "xmit bytes={bytes}"),
            TraceEvent::RxFrame { bytes } => write!(f, "rx_frame bytes={bytes}"),
            TraceEvent::Irq { cause } => write!(f, "irq cause={cause:#x}"),
            TraceEvent::PollPass { harvested, drained } => {
                write!(f, "poll_pass harvested={harvested} drained={drained}")
            }
            TraceEvent::Watchdog { fired } => write!(f, "watchdog fired={fired}"),
            TraceEvent::Reset => f.write_str("reset"),
            TraceEvent::FaultInjected { what } => write!(f, "fault_injected what={what}"),
        }
    }
}

/// One ring-buffer entry: an event plus its timestamp and provenance.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceRecord {
    /// Virtual-clock timestamp: unique and strictly increasing across the
    /// whole trace (deterministic — no host time involved).
    pub ts: u64,
    /// This producer's sequence number (0-based, gap-free unless drops
    /// are reported for the producer).
    pub seq: u64,
    /// Which track emitted the event.
    pub producer: Producer,
    /// The event payload.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>6}] {:<9} #{:<5} {}",
            self.ts, self.producer, self.seq, self.event
        )
    }
}
