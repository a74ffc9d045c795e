//! KIR module corpus: the IR-level driver model and workloads used by the
//! engineering-effort claim (CLAIM-T), the guard-optimization ablation
//! (ABL-OPT), and the examples.

use kop_ir::{parse_module, Module};

/// A miniature e1000e transmit path expressed in KIR — the module the
/// "transform a production module with zero source changes" claim is
/// exercised on. Layout matches the native driver model: a descriptor
/// ring of `{ i64 buffer, i32 len_cmd, i32 status }`, a stats block, and
/// an MMIO doorbell.
pub const MINI_E1000E_IR: &str = r#"
module "mini-e1000e"

global @stats : { i64, i64, i64 } = zero

define void @write_header(ptr %buf, i64 %dst_src, i64 %src_rest, i64 %ethertype) {
entry:
  store i64 %dst_src, ptr %buf
  %p1 = gep i8, ptr %buf, i64 8
  %src32 = trunc i64 %src_rest to i32
  store i32 %src32, ptr %p1
  %p2 = gep i8, ptr %buf, i64 12
  %et16 = trunc i64 %ethertype to i16
  store i16 %et16, ptr %p2
  ret void
}

define i64 @clean_tx(ptr %ring, i64 %head, i64 %tail) {
entry:
  br %loop
loop:
  %i = phi i64 [ %head, %entry ], [ %i.next, %advance ]
  %cleaned = phi i64 [ 0, %entry ], [ %cleaned.next, %advance ]
  %more = icmp ne i64 %i, %tail
  condbr i1 %more, %check, %done
check:
  %slot = gep { i64, i32, i32 }, ptr %ring, i64 %i
  %sts.p = gep { i64, i32, i32 }, ptr %ring, i64 %i, i32 2
  %sts = load i32, ptr %sts.p
  %dd = and i32 %sts, 1
  %isdone = icmp ne i32 %dd, 0
  condbr i1 %isdone, %reclaim, %done
reclaim:
  store i32 0, ptr %sts.p
  br %advance
advance:
  %i.next.raw = add i64 %i, 1
  %i.next = and i64 %i.next.raw, 255
  %cleaned.next = add i64 %cleaned, 1
  br %loop
done:
  %result = phi i64 [ %cleaned, %loop ], [ %cleaned, %check ]
  ret i64 %result
}

define void @queue_desc(ptr %ring, i64 %slot, i64 %buf, i64 %len_cmd) {
entry:
  %addr.p = gep { i64, i32, i32 }, ptr %ring, i64 %slot
  store i64 %buf, ptr %addr.p
  %len.p = gep { i64, i32, i32 }, ptr %ring, i64 %slot, i32 1
  %len32 = trunc i64 %len_cmd to i32
  store i32 %len32, ptr %len.p
  ret void
}

define void @bump_stats(i64 %bytes) {
entry:
  %pk.p = gep { i64, i64, i64 }, ptr @stats, i64 0, i32 0
  %pk = load i64, ptr %pk.p
  %pk2 = add i64 %pk, 1
  store i64 %pk2, ptr %pk.p
  %by.p = gep { i64, i64, i64 }, ptr @stats, i64 0, i32 1
  %by = load i64, ptr %by.p
  %by2 = add i64 %by, %bytes
  store i64 %by2, ptr %by.p
  ret void
}

define void @xmit(ptr %ring, ptr %buf, ptr %mmio, i64 %slot, i64 %len, i64 %head) {
entry:
  %cleaned = call i64 @clean_tx(ptr %ring, i64 %head, i64 %slot)
  call void @write_header(ptr %buf, i64 0x02ffffffffffff, i64 0x4b4f5001, i64 0xb588)
  %cmd = or i64 %len, 0x0b000000
  call void @queue_desc(ptr %ring, i64 %slot, i64 0, i64 %cmd)
  call void @bump_stats(i64 %len)
  %tdt.p = gep i8, ptr %mmio, i64 0x3818
  %slot.next.raw = add i64 %slot, 1
  %slot.next = and i64 %slot.next.raw, 255
  %tdt32 = trunc i64 %slot.next to i32
  store i32 %tdt32, ptr %tdt.p
  ret void
}
"#;

/// The forwarding rewrite expressed in KIR — the RX-side companion to
/// [`MINI_E1000E_IR`]. `@fwd_rewrite` copies a received frame into a TX
/// buffer byte-by-byte (guarded loads from the DMA-filled RX buffer,
/// guarded stores into the TX buffer), then patches the Ethernet header
/// for the echo path: destination becomes the original source,
/// source becomes the forwarder's own MAC (passed as a 48-bit
/// little-endian integer). Matches [`kop_net::rewrite`] exactly, so the
/// interpreter-driven and native forwarding paths are byte-comparable.
pub const FORWARD_IR: &str = r#"
module "fwd-rewrite"

global @fwd_stats : { i64, i64 } = zero

define i64 @fwd_rewrite(ptr %rx, ptr %tx, i64 %own48, i64 %len) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %copy ]
  %more = icmp ult i64 %i, %len
  condbr i1 %more, %copy, %patch
copy:
  %sp = gep i8, ptr %rx, i64 %i
  %b = load i8, ptr %sp
  %dp = gep i8, ptr %tx, i64 %i
  store i8 %b, ptr %dp
  %i.next = add i64 %i, 1
  br %head
patch:
  br %swap
swap:
  %j = phi i64 [ 0, %patch ], [ %j.next, %swapbody ]
  %c = icmp ult i64 %j, 6
  condbr i1 %c, %swapbody, %ownmac
swapbody:
  %soff = add i64 %j, 6
  %srcb.p = gep i8, ptr %rx, i64 %soff
  %srcb = load i8, ptr %srcb.p
  %dstb.p = gep i8, ptr %tx, i64 %j
  store i8 %srcb, ptr %dstb.p
  %j.next = add i64 %j, 1
  br %swap
ownmac:
  %own32 = trunc i64 %own48 to i32
  %sp6 = gep i8, ptr %tx, i64 6
  store i32 %own32, ptr %sp6
  %hi = lshr i64 %own48, 32
  %own16 = trunc i64 %hi to i16
  %sp10 = gep i8, ptr %tx, i64 10
  store i16 %own16, ptr %sp10
  %pk.p = gep { i64, i64 }, ptr @fwd_stats, i64 0, i32 0
  %pk = load i64, ptr %pk.p
  %pk2 = add i64 %pk, 1
  store i64 %pk2, ptr %pk.p
  %by.p = gep { i64, i64 }, ptr @fwd_stats, i64 0, i32 1
  %by = load i64, ptr %by.p
  %by2 = add i64 %by, %len
  store i64 %by2, ptr %by.p
  ret i64 %len
}
"#;

/// A guard-optimization workload: a hot loop with loop-invariant global
/// accesses (hoistable) and repeated same-pointer accesses (deduplicable).
pub const OPT_WORKLOAD_IR: &str = r#"
module "opt-workload"

global @config : i64 = 7
global @acc : i64 = 0

define i64 @run(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %cfg = load i64, ptr @config
  %cfg2 = load i64, ptr @config
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %v2 = mul i64 %v, %cfg
  %v3 = add i64 %v2, %cfg2
  %old = load i64, ptr @acc
  %new = add i64 %old, %v3
  store i64 %new, ptr @acc
  %i.next = add i64 %i, 1
  br %head
exit:
  %r = load i64, ptr @acc
  ret i64 %r
}
"#;

/// A rootkit-style module: scans low (user-half) memory looking for
/// credentials — the class of attack the paper's firewall stops.
pub const ROOTKIT_IR: &str = r#"
module "credscan"

global @found : i64 = 0

define i64 @scan(i64 %start, i64 %len) {
entry:
  br %head
head:
  %off = phi i64 [ 0, %entry ], [ %off.next, %next ]
  %c = icmp ult i64 %off, %len
  condbr i1 %c, %body, %done
body:
  %addr = add i64 %start, %off
  %p = inttoptr i64 %addr to ptr
  %word = load i64, ptr %p
  %hit = icmp eq i64 %word, 0x6472777373617020
  condbr i1 %hit, %record, %next
record:
  store i64 %addr, ptr @found
  br %next
next:
  %off.next = add i64 %off, 8
  br %head
done:
  %r = load i64, ptr @found
  ret i64 %r
}
"#;

/// Parse one of the corpus modules (panics on corpus bugs — these are
/// compiled into the binary and covered by tests).
pub fn parse(src: &str) -> Module {
    parse_module(src).expect("corpus module parses")
}

/// Generate a large synthetic module with `n_funcs` functions, each a
/// loop over guarded loads/stores — the scale stand-in for the paper's
/// 19 kLoC e1000e. At `n_funcs = 800` the printed IR is ~19,000 lines of
/// KIR, so CLAIM-T can exercise "transform a ~19 kLoC module" literally.
pub fn synthetic_large(n_funcs: usize) -> Module {
    use std::fmt::Write;
    let mut src = String::from("module \"synthetic-large\"\n\nglobal @total : i64 = 0\n");
    for fi in 0..n_funcs {
        // A spread of accesses so the module isn't one repeated pattern:
        // stride and field offsets vary per function. The value names are
        // the ones the printer generates for unnamed values, so the
        // module's text (and its signature) stays what the figures have
        // always measured.
        let (stride, bump) = (fi % 7 + 1, fi + 1);
        write!(
            src,
            "
define i64 @work{fi}(ptr %buf, i64 %n) {{
entry:
  br %head
head:
  %__t0 = phi i64 [ 0, %entry ], [ %__t12, %body ]
  %__t1 = phi i64 [ {fi}, %entry ], [ %__t11, %body ]
  %__t2 = icmp ult i64 %__t0, %n
  condbr i1 %__t2, %body, %exit
body:
  %__t3 = mul i64 %__t0, {stride}
  %__t4 = gep i64, ptr %buf, i64 %__t3
  %__t5 = load i64, ptr %__t4
  %__t6 = add i64 %__t5, {bump}
  store i64 %__t6, ptr %__t4
  %__t8 = load i64, ptr @total
  %__t9 = add i64 %__t8, %__t6
  store i64 %__t9, ptr @total
  %__t11 = add i64 %__t1, %__t6
  %__t12 = add i64 %__t0, 1
  br %head
exit:
  ret i64 %__t1
}}
"
        )
        .expect("writing to a String cannot fail");
    }
    parse(&src)
}

/// All corpus modules with labels (for sweeps).
pub fn all() -> Vec<(&'static str, Module)> {
    vec![
        ("mini-e1000e", parse(MINI_E1000E_IR)),
        ("fwd-rewrite", parse(FORWARD_IR)),
        ("opt-workload", parse(OPT_WORKLOAD_IR)),
        ("credscan", parse(ROOTKIT_IR)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::verify_module;

    #[test]
    fn corpus_parses_and_verifies() {
        for (name, module) in all() {
            verify_module(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(module.memory_access_count() > 0, "{name} touches memory");
        }
    }

    #[test]
    fn forward_rewrite_has_expected_shape() {
        let m = parse(FORWARD_IR);
        assert_eq!(m.functions.len(), 1);
        assert!(m.function("fwd_rewrite").is_some());
        // Copy loop (1 load + 1 store) + MAC swap loop (1 load + 1 store)
        // + own-MAC patch (2 stores) + stats (2 loads, 2 stores).
        assert!(m.memory_access_count() >= 10);
    }

    #[test]
    fn mini_driver_has_expected_shape() {
        let m = parse(MINI_E1000E_IR);
        assert_eq!(m.functions.len(), 5);
        assert!(m.function("xmit").is_some());
        // Header (3 stores) + clean (1 load, 1 store) + desc (2 stores) +
        // stats (2 loads, 2 stores) + doorbell (1 store).
        assert!(m.memory_access_count() >= 12);
    }
}
