//! `/dev/trace` requests cross a trust boundary: the handler must never
//! panic, and must answer `Ok` exactly for the documented grammar —
//! never for an unknown command, a malformed argument or a trailing
//! word (which would otherwise be silently ignored).

use proptest::prelude::*;

use kop_trace::{control, GuardDecision, Producer, ProfileShard, Tracer};

/// The documented grammar, spelled independently of the handler.
fn well_formed(req: &str) -> bool {
    let words: Vec<&str> = req.split_whitespace().collect();
    match words.as_slice() {
        ["tracing_on"]
        | ["trace"]
        | ["top"]
        | ["counters"]
        | ["rx"]
        | ["forward"]
        | ["perfetto"]
        | ["clear"] => true,
        ["tracing_on", on] => *on == "0" || *on == "1",
        ["top", n] => {
            !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()) && n.parse::<usize>().is_ok()
        }
        _ => false,
    }
}

/// A tracer with a profiled site and a counter, so every `Ok` reply
/// renders real content.
fn tracer() -> std::sync::Arc<Tracer> {
    let t = Tracer::with_capacity(16);
    let site = t.register_site("m", "f/g0");
    t.set_enabled(true);
    ProfileShard::new(std::sync::Arc::clone(&t)).traced_check(
        Producer::Driver,
        site,
        None,
        || (),
        |_| GuardDecision::Allowed,
    );
    t.counters().counter("e1000e.rx_packets").add(3);
    t
}

#[test]
fn malformed_requests_are_rejected() {
    let t = tracer();
    for req in [
        "tracing_on 0 1",
        "tracing_on 1 0",
        "tracing_on 2",
        "tracing_on yes",
        "top 3 junk",
        "top abc",
        "top -1",
        "top +5",
        "top 1.5",
        "top 99999999999999999999999999",
        "trace all",
        "counters now",
        "rx 1",
        "perfetto json",
        "clear clear",
        "",
        "   ",
        "TOP",
    ] {
        let was_on = t.enabled();
        assert!(control::handle(&t, req).is_err(), "{req:?} must be refused");
        assert_eq!(t.enabled(), was_on, "{req:?} changed tracing_on");
    }
    // Tracing stays on: `tracing_on 0 1` no longer switches it off.
    assert!(t.enabled());
    for req in [
        "top",
        "top 3",
        " top   007 ",
        "tracing_on 1",
        "rx",
        "forward",
    ] {
        assert!(control::handle(&t, req).is_ok(), "{req:?} is well formed");
    }
}

/// A command word, including one the tracer does not own.
fn arb_command() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("tracing_on"),
        Just("trace"),
        Just("top"),
        Just("counters"),
        Just("rx"),
        Just("forward"),
        Just("perfetto"),
        Just("clear"),
        Just("lifecycle"),
    ]
    .prop_map(str::to_string)
}

/// An argument-shaped word: valid switches and counts, signed, oversized
/// and non-numeric ones, and arbitrary text.
fn arb_arg() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("0"),
            Just("1"),
            Just("-1"),
            Just("+5"),
            Just("abc"),
            Just("007"),
            Just("18446744073709551616"),
        ]
        .prop_map(str::to_string),
        any::<u16>().prop_map(|n| n.to_string()),
        "\\PC{0,6}",
    ]
}

/// Words joined by assorted whitespace.
fn join(words: &[String], seps: &[u8]) -> String {
    let mut s = String::new();
    for (i, w) in words.iter().enumerate() {
        s.push_str([" ", "  ", "\t", "\n"][seps[i % seps.len()] as usize]);
        s.push_str(w);
    }
    s
}

fn arb_request() -> impl Strategy<Value = String> {
    prop_oneof![
        // A command with zero, one or two argument words: the grammar,
        // its malformed arguments, and its trailing words.
        (
            arb_command(),
            proptest::collection::vec(arb_arg(), 0..3),
            proptest::collection::vec(0u8..4, 3..4),
        )
            .prop_map(|(cmd, args, seps)| {
                let words: Vec<String> = std::iter::once(cmd).chain(args).collect();
                join(&words, &seps)
            }),
        // Word soup.
        (
            proptest::collection::vec(prop_oneof![arb_command(), arb_arg()], 0..4),
            proptest::collection::vec(0u8..4, 4..5),
        )
            .prop_map(|(words, seps)| join(&words, &seps)),
        // Arbitrary text.
        "\\PC{0,40}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Never panics; `Ok` exactly for the documented grammar.
    #[test]
    fn handler_accepts_exactly_the_grammar(req in arb_request()) {
        let t = tracer();
        let reply = control::handle(&t, &req);
        prop_assert_eq!(
            reply.is_ok(),
            well_formed(&req),
            "request {:?} answered {:?}",
            req,
            reply
        );
    }
}
