//! # kop-ir — "KIR", a miniature LLVM-like IR
//!
//! CARAT KOP's compiler is an LLVM middle-end pass: it iterates over every
//! `load` and `store` in a kernel module and inserts a call to
//! `@carat_guard` before it (§3.3 of the paper). To reproduce that without
//! linking LLVM, this crate implements a small typed SSA IR with exactly the
//! surface such a pass needs:
//!
//! * a type system (`void`, integers, `ptr`, arrays, structs) with layout
//!   rules ([`types`]),
//! * an arena-based module/function/block/instruction representation
//!   ([`module`], [`function`], [`inst`]),
//! * a textual assembly syntax with a full parser ([`parser`]) and printer
//!   ([`printer`]) that round-trip,
//! * a verifier ([`verify`]) enforcing SSA and type discipline (the loader
//!   re-verifies modules at insertion time), and
//! * dominator analysis ([`dom`]) used by the verifier and by the guard
//!   hoisting optimization.
//!
//! Modules are built by parsing KIR text, the same path every signed
//! module takes at insertion.
//!
//! Undefined behaviour note (paper §2): KIR, like LLVM IR here, is the level
//! at which all guarding happens — front-end language semantics are assumed
//! to have been lowered away. The only "dangerous" construct KIR can express
//! is the [`inst::Inst::Asm`] marker, which exists precisely so attestation
//! has something to reject.

#![warn(missing_docs)]

pub mod dom;
pub mod function;
pub mod inst;
pub mod loops;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use function::{Block, BlockId, Function, InstId};
pub use inst::{BinOp, CastOp, IcmpPred, Inst, Terminator, Value};
pub use loops::{find_counted_loops, CountedLoop};
pub use module::{ExternDecl, Global, GlobalInit, Module};
pub use parser::{parse_module, ParseError};
pub use printer::print_module;
pub use types::Type;
pub use verify::{verify_module, VerifyError};
