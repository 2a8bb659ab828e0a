//! Exact comparison of two `vcdn-telemetry/1` documents.
//!
//! Bundles are bit-reproducible by contract, so there is no tolerance:
//! two records are equal when the writer renders them to the same line,
//! and a difference prints both lines.

use std::collections::BTreeMap;

use crate::bundle::TelemetryBundle;

/// Every line of `b` as the writer renders it, under the key it is
/// matched by: metrics by name — so a registration-order change reads as
/// such, not as a wall of mismatches — top-K records by `(shard, rank)`,
/// everything else by its position in its section.
fn keyed_lines(b: &TelemetryBundle) -> Vec<(String, String)> {
    let by_position = |section: &'static str, n| (0..n).map(move |i| format!("{section}[{i}]"));
    // In `to_jsonl`'s line order.
    let keys = std::iter::once("meta".to_string())
        .chain(b.metrics.iter().map(|m| format!("metric {}", m.name)))
        .chain((b.topk.iter()).map(|t| format!("topk s{}#{}", t.shard, t.rank)))
        .chain(by_position("window", b.windows.len()))
        .chain(by_position("alert", b.alerts.len()))
        .chain(by_position("sample", b.series.len()))
        .chain(by_position("event", b.events.len()));
    keys.zip(b.to_jsonl().lines().map(String::from)).collect()
}

/// Every difference between documents `a` and `b`, one message each;
/// empty exactly when they serialise to the same bytes. Bundles are
/// paired by position and named `bundle <i> (<label>)`; all six sections
/// and the meta line are compared, and a message carries the section, the
/// key or position within it, and both lines.
pub fn diff(a: &[TelemetryBundle], b: &[TelemetryBundle]) -> Vec<String> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!("{} bundle(s) in A, {} in B", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let ctx = format!("bundle {i} ({})", x.label());
        let (xs, ys) = (keyed_lines(x), keyed_lines(y));
        if xs == ys {
            continue;
        }
        let before = out.len();
        let in_a: BTreeMap<&str, &str> = xs.iter().map(|(k, l)| (&k[..], &l[..])).collect();
        let in_b: BTreeMap<&str, &str> = ys.iter().map(|(k, l)| (&k[..], &l[..])).collect();
        for (key, line) in &xs {
            match in_b.get(&key[..]) {
                Some(other) if other == line => {}
                Some(other) => out.push(format!("{ctx} {key}: {line} != {other}")),
                None => out.push(format!("{ctx} {key}: only in A: {line}")),
            }
        }
        for (key, line) in &ys {
            if !in_a.contains_key(&key[..]) {
                out.push(format!("{ctx} {key}: only in B: {line}"));
            }
        }
        if out.len() == before {
            let (i, ((in_a, _), (in_b, _))) = (xs.iter().zip(&ys).enumerate())
                .find(|(_, (x, y))| x != y)
                .expect("the two differ");
            out.push(format!(
                "{ctx}: the same lines in another order: line {} is {in_a} in A, {in_b} in B",
                i + 1
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::tests::DOC;

    #[test]
    fn a_reordered_section_is_a_difference_too() {
        let a = TelemetryBundle::parse_jsonl(DOC).unwrap();
        let mut b = a.clone();
        b[0].metrics.swap(0, 1);
        assert_eq!(
            diff(&a, &b),
            ["bundle 0 (demo): the same lines in another order: \
              line 2 is metric demo.x in A, metric demo.h in B"]
        );
        b[0].metrics.pop();
        let found = diff(&a, &b);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("bundle 0 (demo) meta: "), "{found:?}");
        assert!(found[1].starts_with("bundle 0 (demo) metric demo.x: only in A: "));
        assert_eq!(diff(&a, &[]), ["1 bundle(s) in A, 0 in B"]);
    }
}
