//! Property tests for the exposition formats and the admin HTTP parser.
//!
//! The Prometheus text renderer is the piece external tooling parses, so
//! its invariants are checked over generated inputs: label values survive
//! escaping round-trips, histogram buckets render cumulatively
//! nondecreasing, and the `+Inf` bucket always equals `_count`. The HTTP
//! parser faces the open network, so the property there is blunter: any
//! byte soup must produce a typed error, never a panic.

use avoc_obs::http::{parse_request, ParseError};
use avoc_obs::{Histogram, Registry};
use proptest::prelude::*;

/// Inverts the Prometheus label-value escaping applied by the renderer.
fn unescape_label(escaped: &str) -> String {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Pulls `(le, cumulative)` pairs for `name_bucket` lines, in render order.
fn bucket_lines(text: &str, name: &str) -> Vec<(String, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, value) = rest.split_once("\"} ")?;
            Some((le.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The value of a single `name value` line.
fn scalar_line(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
}

proptest! {
    #[test]
    fn label_values_round_trip_through_escaping(value in "[a-z0-9\"\\\n {}=,]{0,16}") {
        let registry = Registry::new();
        registry
            .counter_with("avoc_prop_total", "", &[("v", &value)])
            .inc();
        let text = registry.render_prometheus();
        // Exactly one sample line, however hostile the label value: raw
        // newlines must have been escaped away.
        let samples: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("avoc_prop_total{"))
            .collect();
        prop_assert_eq!(samples.len(), 1, "splintered sample line: {:?}", samples);
        let escaped = samples[0]
            .strip_prefix("avoc_prop_total{v=\"")
            .and_then(|rest| rest.strip_suffix("\"} 1"));
        prop_assert!(escaped.is_some(), "unparseable line {:?}", samples[0]);
        prop_assert_eq!(unescape_label(escaped.unwrap()), value);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_inf_equals_count(
        values in prop::collection::vec(0u64..5_000_000, 0..64),
    ) {
        let registry = Registry::new();
        let hist = registry.latency_histogram_with("avoc_prop_h", "", &[]);
        for &v in &values {
            hist.record(v);
        }
        let text = registry.render_prometheus();
        let buckets = bucket_lines(&text, "avoc_prop_h");
        prop_assert!(!buckets.is_empty(), "no bucket lines rendered");
        for pair in buckets.windows(2) {
            prop_assert!(
                pair[0].1 <= pair[1].1,
                "cumulative counts decreased: {:?}",
                buckets
            );
        }
        let (last_le, last_cum) = buckets.last().unwrap().clone();
        prop_assert_eq!(last_le, "+Inf");
        let count = scalar_line(&text, "avoc_prop_h_count");
        prop_assert_eq!(Some(last_cum), count, "+Inf bucket != _count");
        prop_assert_eq!(last_cum, values.len() as u64);
        let sum = scalar_line(&text, "avoc_prop_h_sum");
        prop_assert_eq!(Some(values.iter().sum::<u64>()), sum);
    }

    #[test]
    fn quantiles_never_leave_the_recorded_range(
        values in prop::collection::vec(1u64..10_000_000_000, 1..48),
        q in 0.0f64..=1.0,
    ) {
        let hist = Histogram::latency_ns();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let est = snap.quantile(q);
        prop_assert!(
            snap.min <= est && est <= snap.max,
            "quantile({}) = {} outside [{}, {}]",
            q,
            est,
            snap.min,
            snap.max
        );
    }

    #[test]
    fn parser_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // The property is the absence of a panic; the result just has to be
        // a typed verdict.
        let verdict = parse_request(&bytes);
        prop_assert!(
            matches!(
                verdict,
                Ok(_)
                    | Err(ParseError::Incomplete)
                    | Err(ParseError::TooLarge)
                    | Err(ParseError::BadMethod)
                    | Err(ParseError::BadRequest)
            ),
            "unreachable verdict"
        );
    }

    #[test]
    fn parser_survives_structured_garbage(
        method in "[A-Z]{1,8}",
        target in "[a-z0-9/?=&._-]{0,24}",
    ) {
        let head = format!("{method} {target} HTTP/1.1\r\nHost: x\r\n\r\n");
        match parse_request(head.as_bytes()) {
            Ok(req) => {
                // Anything accepted must have come from a GET with an
                // absolute path, and the parsed path never contains the
                // query part.
                prop_assert_eq!(method, "GET");
                prop_assert!(target.starts_with('/'));
                prop_assert!(!req.path().contains('?'));
            }
            Err(e) => prop_assert!(e != ParseError::Incomplete, "complete head reported partial"),
        }
    }
}
