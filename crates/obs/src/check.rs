//! The semantic checks over a read bundle: what must hold *between* the
//! lines of a `vcdn-telemetry/1` export, once [`crate::read`] has held
//! each line (and the meta line's counts) to the writer's grammar.

use vcdn_types::float::exactly_zero;
use vcdn_types::CostModel;

use crate::bundle::TelemetryBundle;
use crate::event::Verdict;
use crate::registry::MetricSnapshot;
use crate::window::WindowRecord;

/// Every invariant bundle `b` breaks, one message each; empty when it
/// holds together.
///
/// Checked: at least one metric and (off the engine) one sample;
/// histograms conserving their samples;
/// top-K tables shard-major with ranks sequential from 1, counts
/// non-increasing with video-ascending ties, `err < count`, at most
/// `topk_k` entries per shard and no count above the run's requests; on
/// engine bundles (`"source":"engine"`) span conservation — the dispatch
/// counter equals `dispatched` and the sum of the shards'
/// `processed_total` — and one queue-gap histogram, load-share gauge and
/// processed counter per shard plus the two skew gauges; a contiguous
/// window grid with rates in range whose deltas sum to the meta line's
/// run totals when nothing was dropped; alerts in window order naming
/// windows of the grid; samples on the `interval_ms` grid with monotone
/// cumulative bytes and a final cumulative efficiency that recomputes
/// from them (Eq. 2); events with increasing `seq` whose served chunks
/// add up.
pub fn check(b: &TelemetryBundle) -> Vec<String> {
    let mut errs = Vec::new();
    let mut err = |msg: String| errs.push(msg);
    let meta_u64 = |key: &str| b.meta_get::<u64>(key);
    let is_engine = b.meta_get::<String>("source").as_deref() == Some("engine");
    if b.metrics.is_empty() {
        err("no metric lines".into());
    }
    if b.series.is_empty() && !is_engine {
        err("no sample lines — sampler was never fed".into());
    }

    for m in &b.metrics {
        let name = &m.name;
        if let Some(hist) = &m.histogram {
            if sum(&hist.buckets) != u128::from(m.value) {
                err(format!("histogram {name}: buckets sum != count"));
            }
        }
    }

    let topk_k = meta_u64("topk_k");
    let total = (meta_u64("dispatched").or_else(|| meta_u64("requests"))).unwrap_or(u64::MAX);
    if !b.topk.is_empty() && topk_k.is_none() {
        err("topk lines present but meta.topk_k missing".into());
    }
    let mut per_shard = 0u64;
    for (i, t) in b.topk.iter().enumerate() {
        let (shard, rank, count) = (t.shard, t.rank, t.count);
        let at = format!("topk s{shard}#{rank}");
        if t.err >= count {
            err(format!("{at}: err {} >= count {count}", t.err));
        }
        if count > total {
            err(format!(
                "{at}: count {count} exceeds total requests {total}"
            ));
        }
        let prev = i.checked_sub(1).map(|p| &b.topk[p]);
        match prev.filter(|p| p.shard == shard) {
            Some(p) => {
                per_shard += 1;
                if p.rank.checked_add(1) != Some(rank) {
                    err(format!("topk s{shard}: rank {rank} after {}", p.rank));
                }
                if count > p.count || (count == p.count && t.video <= p.video) {
                    err(format!("{at}: order violates (count desc, video asc)"));
                }
            }
            None => {
                per_shard = 1;
                if prev.is_some_and(|p| shard < p.shard) {
                    err(format!("topk: shard {shard} out of order"));
                }
                if rank != 1 {
                    err(format!("topk s{shard}: first rank is {rank}, not 1"));
                }
            }
        }
        if let Some(k) = topk_k.filter(|&k| per_shard - 1 == k) {
            err(format!("topk s{shard}: more than topk_k={k} entries"));
        }
    }

    if is_engine {
        let named = |suffix: &str| -> Vec<&MetricSnapshot> {
            let ends = |m: &&MetricSnapshot| m.name.ends_with(suffix);
            b.metrics.iter().filter(ends).collect()
        };
        let in_meta = meta_u64("dispatched");
        let dispatched = named(".engine.span.dispatched_total")
            .first()
            .map(|m| m.value);
        if dispatched.is_none() || dispatched != in_meta {
            err(format!(
                "span.dispatched_total {dispatched:?} != meta.dispatched {in_meta:?}"
            ));
        }
        let processed = sum(named(".span.processed_total").iter().map(|m| &m.value));
        if Some(processed) != dispatched.map(u128::from) {
            err(format!(
                "span conservation broken: dispatched {dispatched:?} != sum processed {processed}"
            ));
        }
        let shards = meta_u64("shards").unwrap_or(0);
        for (suffix, what) in [
            (".span.queue_gap", "queue-gap histogram"),
            (".span.load_share_x1000", "load-share gauge"),
            (".span.processed_total", "processed counter"),
        ] {
            let n = named(suffix).len() as u64;
            if n != shards {
                err(format!("{n} {what}s for {shards} shard streams"));
            }
        }
        for gauge in ["skew_requests_x1000", "skew_bytes_x1000"] {
            if named(&format!(".engine.span.{gauge}")).is_empty() {
                err(format!("engine bundle missing {gauge} gauge"));
            }
        }
    }

    for (i, w) in b.windows.iter().enumerate() {
        let index = w.index;
        if let Some(prev) = i.checked_sub(1).map(|p| b.windows[p].index) {
            if prev.checked_add(1) != Some(index) {
                err(format!(
                    "window {index} after {prev}: index grid not contiguous"
                ));
            }
        }
        for (key, v) in [
            ("efficiency", w.efficiency),
            ("redirect_rate", w.redirect_rate),
        ] {
            if !(v.is_finite() && (-1e9..=1.0).contains(&v)) {
                err(format!("window {i}: {key} = {v} out of range"));
            }
        }
    }
    // Delta conservation needs every window: a ring that evicted some
    // cannot sum back to the run's totals.
    if b.windows_dropped == 0 && !b.windows.is_empty() {
        let deltas = |f: fn(&WindowRecord) -> &u64| sum(b.windows.iter().map(f));
        for (key, deltas) in [
            ("hit_bytes", deltas(|w| &w.hit_bytes)),
            ("fill_bytes", deltas(|w| &w.fill_bytes)),
            ("redirect_bytes", deltas(|w| &w.redirect_bytes)),
        ] {
            if let Some(total) = meta_u64(key).filter(|&total| deltas != u128::from(total)) {
                err(format!(
                    "window deltas sum {deltas} != meta.{key} {total} (conservation)"
                ));
            }
        }
    }

    // Alerts fire at close time and may outlive a dropped window, so
    // without the whole grid membership is only bounded from above.
    let window_max = b.windows.last().map(|w| w.index);
    for (i, a) in b.alerts.iter().enumerate() {
        let (rule, window) = (&a.rule, a.window);
        if rule.is_empty() {
            err(format!("alert at window {window}: empty rule name"));
        }
        if i.checked_sub(1)
            .is_some_and(|p| window < b.alerts[p].window)
        {
            err(format!("alert {rule}: window {window} out of order"));
        }
        if window_max.is_none_or(|max| window > max) {
            err(format!(
                "alert {rule}: window {window} beyond the exported grid"
            ));
        } else if b.windows_dropped == 0 && !b.windows.iter().any(|w| w.index == window) {
            err(format!(
                "alert {rule}: window {window} missing from the grid"
            ));
        }
    }

    let interval = meta_u64("interval_ms").unwrap_or(0);
    let mut prev_cum = 0u128;
    for (i, s) in b.series.iter().enumerate() {
        if (i as u64).checked_mul(interval) != Some(s.t_ms) {
            err(format!("sample {i}: t_ms off the interval grid"));
            break;
        }
        let cum = sum([&s.cum.hit_bytes, &s.cum.fill_bytes, &s.cum.redirect_bytes]);
        if cum < prev_cum {
            err(format!("sample {i}: cumulative bytes decreased"));
        }
        prev_cum = cum;
    }
    if let (Some(last), Some(alpha)) = (b.series.last(), b.meta_get::<f64>("alpha")) {
        match CostModel::from_alpha(alpha) {
            Err(e) => err(format!("meta.alpha: {e}")),
            Ok(costs) => {
                let (fill, red) = (last.cum.fill_bytes as f64, last.cum.redirect_bytes as f64);
                let total = last.cum.hit_bytes as f64 + fill + red;
                let want = if exactly_zero(total) {
                    0.0
                } else {
                    1.0 - fill / total * costs.c_f() - red / total * costs.c_r()
                };
                let got = last.cum_efficiency;
                // NaN must fail too, so compare for "close enough" and negate.
                let close = (got - want).abs() < 1e-9;
                if !close {
                    err(format!(
                        "final cum_efficiency {got} does not recompute to {want} (Eq. 2)"
                    ));
                }
            }
        }
    }

    for (i, e) in b.events.iter().enumerate() {
        let (seq, chunks) = (e.seq, e.chunks);
        if let Some(prev) = i
            .checked_sub(1)
            .map(|p| b.events[p].seq)
            .filter(|&p| seq <= p)
        {
            err(format!("event seq {seq} after {prev} not increasing"));
            break;
        }
        let served = match e.verdict {
            Verdict::Serve {
                hit_chunks,
                filled_chunks,
            } => sum([&hit_chunks, &filled_chunks]),
            Verdict::Redirect => u128::from(chunks),
        };
        if served != u128::from(chunks) {
            err(format!(
                "event {seq}: served chunks do not add up to the request's {chunks}"
            ));
        }
    }
    errs
}

/// A sum no read value can overflow.
fn sum<'a>(values: impl IntoIterator<Item = &'a u64>) -> u128 {
    values.into_iter().map(|&v| u128::from(v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::tests::DOC;

    #[test]
    fn each_broken_invariant_is_one_message() {
        for (from, to, what) in [
            (
                "\"buckets\":[1,0,2]",
                "\"buckets\":[1,0,3]",
                "histogram demo.h: buckets sum != count",
            ),
            (
                "\"count\":3,\"err\":0",
                "\"count\":3,\"err\":3",
                "topk s0#1: err 3 >= count 3",
            ),
            (
                "\"rank\":1",
                "\"rank\":2",
                "topk s0: first rank is 2, not 1",
            ),
            (
                "\"topk_k\":8",
                "\"topk_k\":0",
                "topk s0: more than topk_k=0 entries",
            ),
            (
                "\"topk_k\":8,",
                "",
                "topk lines present but meta.topk_k missing",
            ),
            (
                "\"efficiency\":1.0,\"redirect_rate\"",
                "\"efficiency\":1.5,\"redirect_rate\"",
                "window 0: efficiency = 1.5 out of range",
            ),
            (
                "\"alert\",\"window\":0",
                "\"alert\",\"window\":1",
                "alert demo-rule: window 1 beyond the exported grid",
            ),
            (
                "\"sample\",\"t_ms\":0",
                "\"sample\",\"t_ms\":5",
                "sample 0: t_ms off the interval grid",
            ),
            (
                "\"cum_efficiency\":1.0",
                "\"cum_efficiency\":0.5",
                "final cum_efficiency 0.5 does not recompute to 1 (Eq. 2)",
            ),
            ("\"alpha\":2.0", "\"alpha\":-2.0", "meta.alpha: "),
            (
                "\"seq\":8",
                "\"seq\":7",
                "event seq 7 after 7 not increasing",
            ),
            (
                "\"hit_chunks\":1,\"fill_chunks\":1",
                "\"hit_chunks\":1,\"fill_chunks\":2",
                "event 7: served chunks do not add up to the request's 2",
            ),
        ] {
            assert!(DOC.contains(from), "{from}");
            let bundles = TelemetryBundle::parse_jsonl(&DOC.replacen(from, to, 1)).unwrap();
            let errs = check(&bundles[0]);
            assert_eq!(errs.len(), 1, "{from} -> {to}: {errs:?}");
            assert!(errs[0].contains(what), "{errs:?} should say {what:?}");
        }
    }
}
