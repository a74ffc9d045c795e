//! # kop-net — the network substrate and measurement tool
//!
//! §4.2 of the paper: *"We bring the NIC up on a private IP address, and
//! then test using a user-level tool that sends raw Ethernet packets to a
//! fake destination. The tool can vary the number of packets sent and the
//! size of the packets. The tool measures the throughput of the packet
//! transmissions, and the latency of individual packet launches."*
//!
//! * [`frame`] — Ethernet frame types and parsing,
//! * [`sink`] — the packet sink the test NIC is attached to,
//! * [`sender`] — the user-level raw sender: each `sendmsg` drives the
//!   real driver model, counts its actual memory work, and converts it to
//!   cycles on a [`kop_sim::MachineProfile`],
//! * [`tool`] — trial orchestration (N packets per trial, many trials),
//!   producing the samples Figures 3–7 are drawn from,
//! * [`flowgen`] — seeded flow-level load generation for the receive
//!   path (thousands of flows, heavy-tailed sizes, bursts),
//! * [`forward`] — the echo/forwarding workload closing the loop
//!   RX → parse → rewrite → TX.

#![warn(missing_docs)]

pub mod flowgen;
pub mod forward;
pub mod frame;
pub mod sender;
pub mod sink;
pub mod tool;

pub use flowgen::FlowGen;
pub use forward::{
    rewrite, run_forward, run_mq_forward, ForwardQueueReport, ForwardReport, MqForwardReport,
};
pub use frame::{EtherType, Frame, MacAddr};
pub use sender::{RawSender, SendError};
pub use sink::{LedgerSink, PacketSink};
pub use tool::{ToolConfig, ToolReport};
