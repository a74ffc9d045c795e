//! Obligation recording — the optimizer's side of the ledger.
//!
//! Every guard-reducing transform records a raw, `InstId`-addressed
//! claim here while passes run; after the pipeline finishes (and so
//! fixes final positions) the driver calls
//! [`ObligationRecorder::finalize`] to resolve each claim into the
//! position-stable `block#index` form of
//! [`kop_analysis::ObligationLedger`] that travels in the attestation.
//!
//! Raw claims may reference guards that a *later* elimination round
//! removes (round 2 can elide a guard that round 1 cited as a
//! dominator). [`ObligationRecorder::redirect`] records "guard X was
//! elided because Y covers it"; finalization chases those links, which
//! is sound because coverage and dominance are both transitive: if Y
//! covers and dominates X, and X covered and dominated the claim, then
//! so does Y.

use std::collections::HashMap;

use kop_analysis::{InstRef, Obligation, ObligationLedger};
use kop_ir::{Function, InstId, Module};

/// One raw claim, addressed by arena instruction id.
#[derive(Clone, Debug)]
enum RawObligation {
    Elide {
        function: String,
        guard: InstId,
        access: InstId,
        size: u64,
        flags: u64,
    },
    Range {
        function: String,
        guard: InstId,
        header: String,
        stride: u64,
        flags: u64,
        accesses: Vec<InstId>,
    },
}

/// Collects raw obligations across a pass pipeline.
#[derive(Clone, Debug, Default)]
pub struct ObligationRecorder {
    raw: Vec<RawObligation>,
    /// `(function, elided guard) → surviving guard` links.
    redirects: HashMap<(String, InstId), InstId>,
}

impl ObligationRecorder {
    /// An empty recorder.
    pub fn new() -> ObligationRecorder {
        ObligationRecorder::default()
    }

    /// Number of raw obligations recorded so far.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Record the elision of a guard of `(size, flags)` that protected
    /// `access`, justified by the dominating `guard`.
    pub fn record_elide(
        &mut self,
        function: &str,
        guard: InstId,
        access: InstId,
        size: u64,
        flags: u64,
    ) {
        self.raw.push(RawObligation::Elide {
            function: function.to_string(),
            guard,
            access,
            size,
            flags,
        });
    }

    /// Record the coalescing of per-iteration guards into the range
    /// `guard` hoisted before the counted loop headed at `header`.
    pub fn record_range(
        &mut self,
        function: &str,
        guard: InstId,
        header: String,
        stride: u64,
        flags: u64,
        accesses: Vec<InstId>,
    ) {
        self.raw.push(RawObligation::Range {
            function: function.to_string(),
            guard,
            header,
            stride,
            flags,
            accesses,
        });
    }

    /// Note that guard `from` was itself elided because `to` covers it:
    /// obligations citing `from` as their dominator are rewritten to
    /// cite `to` at finalization.
    pub fn redirect(&mut self, function: &str, from: InstId, to: InstId) {
        let to = self.resolve(function, to);
        self.redirects.insert((function.to_string(), from), to);
    }

    /// Chase redirect links (bounded — links always point at a guard
    /// recorded as surviving *at the time*, so chains cannot cycle, but
    /// bound defensively anyway).
    fn resolve(&self, function: &str, mut id: InstId) -> InstId {
        for _ in 0..self.redirects.len() + 1 {
            match self.redirects.get(&(function.to_string(), id)) {
                Some(&next) => id = next,
                None => break,
            }
        }
        id
    }

    /// Resolve every raw claim against the final module layout. Claims
    /// whose instructions are no longer placed are dropped (they can no
    /// longer be audited and no longer exempt anything — the validator's
    /// coverage replay remains the backstop).
    pub fn finalize(&self, module: &Module) -> ObligationLedger {
        let mut positions: HashMap<&str, HashMap<InstId, InstRef>> = HashMap::new();
        for f in &module.functions {
            positions.insert(f.name.as_str(), placed_positions(f));
        }
        let mut obligations = Vec::with_capacity(self.raw.len());
        for raw in &self.raw {
            match raw {
                RawObligation::Elide {
                    function,
                    guard,
                    access,
                    size,
                    flags,
                } => {
                    let Some(pos) = positions.get(function.as_str()) else {
                        continue;
                    };
                    let guard = self.resolve(function, *guard);
                    let (Some(g), Some(a)) = (pos.get(&guard), pos.get(access)) else {
                        continue;
                    };
                    obligations.push(Obligation::Elide {
                        function: function.clone(),
                        guard: g.clone(),
                        access: a.clone(),
                        size: *size,
                        flags: *flags,
                    });
                }
                RawObligation::Range {
                    function,
                    guard,
                    header,
                    stride,
                    flags,
                    accesses,
                } => {
                    let Some(pos) = positions.get(function.as_str()) else {
                        continue;
                    };
                    let Some(g) = pos.get(guard) else {
                        continue;
                    };
                    let Some(refs) = accesses
                        .iter()
                        .map(|a| pos.get(a).cloned())
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    obligations.push(Obligation::Range {
                        function: function.clone(),
                        guard: g.clone(),
                        header: header.clone(),
                        stride: *stride,
                        flags: *flags,
                        accesses: refs,
                    });
                }
            }
        }
        ObligationLedger { obligations }
    }
}

fn placed_positions(f: &Function) -> HashMap<InstId, InstRef> {
    let mut map = HashMap::new();
    for bid in f.block_ids() {
        let block = f.block(bid);
        for (idx, &iid) in block.insts.iter().enumerate() {
            map.insert(
                iid,
                InstRef {
                    block: block.name.clone(),
                    index: idx,
                },
            );
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::parse_module;

    #[test]
    fn finalize_resolves_positions_and_redirects() {
        let src = r#"
module "fin"
declare void @carat_guard(ptr, i64, i32)
define void @f(ptr %p) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 3)
  store i64 1, ptr %p
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.function("f").unwrap();
        let entry = f.block_by_name("entry").unwrap();
        let guard = f.block(entry).insts[0];
        let store = f.block(entry).insts[1];

        let mut rec = ObligationRecorder::new();
        // Pretend a guard with arena id 99 was elided, its claim backed
        // by id 98, which was in turn elided and backed by the real one.
        rec.record_elide("f", InstId(98), store, 8, 2);
        rec.redirect("f", InstId(98), guard);
        let ledger = rec.finalize(&m);
        assert_eq!(ledger.len(), 1);
        let Obligation::Elide {
            guard: g, access, ..
        } = &ledger.obligations[0]
        else {
            panic!("expected elide");
        };
        assert_eq!(g.to_string(), "entry#0");
        assert_eq!(access.to_string(), "entry#1");
    }

    #[test]
    fn unplaced_references_are_dropped() {
        let m = parse_module("module \"empty\"").unwrap();
        let mut rec = ObligationRecorder::new();
        rec.record_elide("ghost", InstId(0), InstId(1), 8, 1);
        assert!(rec.finalize(&m).is_empty());
    }
}
