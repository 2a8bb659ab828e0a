//! The bundle reader: [`TelemetryBundle::parse_jsonl`], the mirror of
//! [`TelemetryBundle::to_jsonl`].
//!
//! **The writer is the grammar.** A line is accepted only if the record
//! read from it re-serialises to that line byte for byte, and a bundle
//! only if its meta line's counts are exactly the `metric` / `topk` /
//! `window` / `alert` / `sample` / `event` lines that follow, in that
//! order. So a missing, extra, renamed, reordered or mistyped field, a
//! swapped section, a stray line and a truncation anywhere are each a
//! [`ReadError`] naming the 1-based line (and the field where there is
//! one) — never a default. Nothing is sized from a count: a meta line
//! promising 2^64 − 1 events is refused at the line where the promise
//! stops holding.
//!
//! What the wire does not carry reads back as zero: a sample line has the
//! cumulative *byte* counters but not the cumulative request counts of
//! [`SeriesSample::cum`](crate::SeriesSample::cum). Everything else
//! round-trips: `parse_jsonl(b.to_jsonl())` gives back `b`'s sections,
//! and `to_jsonl` of what `parse_jsonl(t)` returns is `t`.

use std::fmt;

use vcdn_types::json::{self, FromJson, Json, JsonError};

use crate::bundle::{TelemetryBundle, SCHEMA};
use crate::detect::AlertEvent;
use crate::event::DecisionEvent;
use crate::registry::MetricSnapshot;
use crate::sampler::SeriesSample;
use crate::topk::TopKRecord;
use crate::window::WindowRecord;

/// Why a document is not a `vcdn-telemetry/1` export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// 1-based line the document stops holding at (one past the last
    /// line when it ends early).
    pub line: usize,
    /// What is wrong there, naming the field where there is one.
    pub what: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ReadError {}

/// Reads field `name` of a line object, naming the field in the error.
pub(crate) fn field<T: FromJson>(line: &Json, name: &'static str) -> Result<T, String> {
    json::field(line, name).map_err(|e| match e {
        JsonError::MissingField(_) => format!("missing field `{name}`"),
        e => format!("field `{name}`: {e}"),
    })
}

/// Reads a float field the writer spells `null` when it is not finite.
pub(crate) fn float(line: &Json, name: &'static str) -> Result<f64, String> {
    Ok(field::<Option<f64>>(line, name)?.unwrap_or(f64::NAN))
}

/// The section line types in bundle order; the meta line counts each.
const SECTIONS: [&str; 6] = ["metric", "topk", "window", "alert", "sample", "event"];
const COUNTS: [&str; 6] = ["metrics", "topk", "windows", "alerts", "samples", "events"];

/// Reads a meta line: an empty bundle holding its entries and drop
/// counts, plus the section counts the following lines must honour.
fn read_meta(line: &Json) -> Result<(TelemetryBundle, [u64; 6]), String> {
    let schema: String = field(line, "schema")?;
    if schema != SCHEMA {
        return Err(format!("field `schema`: {schema:?} is not {SCHEMA:?}"));
    }
    let Json::Obj(fields) = line else {
        unreachable!("`field` read an object")
    };
    // The writer puts its counts last, so a caller's entry of the same
    // name cannot shadow one: look each up from the back.
    let tail = |name: &'static str| -> Result<u64, String> {
        let (_, value) = (fields.iter().rev())
            .find(|(key, _)| key == name)
            .ok_or_else(|| format!("missing field `{name}`"))?;
        u64::from_json(value).map_err(|e| format!("field `{name}`: {e}"))
    };
    let mut counts = [0; 6];
    for (count, name) in counts.iter_mut().zip(COUNTS) {
        *count = tail(name)?;
    }
    let bundle = TelemetryBundle {
        // `type`, `schema` and eight distinct trailing names were found.
        meta: fields[2..fields.len() - 8].to_vec(),
        windows_dropped: tail("windows_dropped")?,
        events_dropped: tail("events_dropped")?,
        ..TelemetryBundle::default()
    };
    Ok((bundle, counts))
}

/// Where the line's field list first departs from the writer's rendering
/// of the record read from it.
fn departure(read: &Json, written: &str) -> String {
    let written = json::parse(written).expect("the writer writes JSON");
    let (Json::Obj(got), Json::Obj(want)) = (read, &written) else {
        unreachable!("both are line objects")
    };
    for (i, (key, value)) in got.iter().enumerate() {
        match want.get(i) {
            Some((k, v)) if k == key && v == value => {}
            Some((k, v)) if k == key => {
                return format!("field `{key}`: {value} where the writer writes {v}")
            }
            Some((k, _)) => return format!("field `{key}` where the writer puts `{k}`"),
            None => return format!("unexpected field `{key}`"),
        }
    }
    match want.get(got.len()) {
        Some((k, _)) => format!("missing field `{k}`"),
        None => "spelled differently from the writer (spacing, number or line ending)".into(),
    }
}

/// A bundle being read: its meta line, and what that line promised and
/// has not been delivered yet.
struct Open<'a> {
    bundle: TelemetryBundle,
    meta_line: usize,
    meta_raw: &'a str,
    remaining: [u64; 6],
}

impl Open<'_> {
    /// The first section still owed lines.
    fn owed(&self) -> Option<usize> {
        self.remaining.iter().position(|&n| n > 0)
    }

    /// `found` on line `line`, where the meta line counts something else.
    fn unexpected(&self, line: usize, found: &str) -> ReadError {
        let owed = match self.owed() {
            Some(s) => format!("{} more `{}` line(s)", self.remaining[s], SECTIONS[s]),
            None => "no more lines".into(),
        };
        let meta_line = self.meta_line;
        let what = format!("{found} where the meta line on line {meta_line} counts {owed}");
        ReadError { line, what }
    }

    /// Ends the bundle at `found` on line `line`. Only now do the
    /// sections have the lengths the meta line states, so only now can
    /// the writer render that line for comparison.
    fn close(self, line: usize, found: &str) -> Result<TelemetryBundle, ReadError> {
        if self.owed().is_some() {
            return Err(self.unexpected(line, found));
        }
        let mut rewritten = String::new();
        self.bundle.write_meta_line(&mut rewritten);
        if rewritten != self.meta_raw {
            let read = json::parse(self.meta_raw).expect("parsed when it was met");
            return Err(ReadError {
                line: self.meta_line,
                what: departure(&read, &rewritten),
            });
        }
        Ok(self.bundle)
    }
}

impl TelemetryBundle {
    /// Reads a `vcdn-telemetry/1` document — zero or more bundles, as
    /// [`TelemetryBundle::to_jsonl`] concatenates them — or says where it
    /// stops being one. See the [module docs](crate::read) for the
    /// contract.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetryBundle>, ReadError> {
        let mut bundles = Vec::new();
        let mut open: Option<Open> = None;
        let mut rewritten = String::new();
        let mut lines = 0;
        for raw in text.split_inclusive('\n') {
            lines += 1;
            let fail = |what: String| ReadError { line: lines, what };
            let line = json::parse(raw).map_err(|e| fail(format!("unparseable: {e}")))?;
            let kind: String = field(&line, "type").map_err(fail)?;
            if kind == "meta" {
                if let Some(done) = open.take() {
                    bundles.push(done.close(lines, "meta line")?);
                }
                let (bundle, remaining) = read_meta(&line).map_err(fail)?;
                open = Some(Open {
                    bundle,
                    meta_line: lines,
                    meta_raw: raw,
                    remaining,
                });
                continue;
            }
            let Some(section) = SECTIONS.iter().position(|s| *s == kind) else {
                return Err(fail(format!("field `type`: unknown line type {kind:?}")));
            };
            let Some(open) = open.as_mut() else {
                return Err(fail(format!("`{kind}` line before any meta line")));
            };
            if open.owed() != Some(section) {
                return Err(open.unexpected(lines, &format!("`{kind}` line")));
            }
            open.remaining[section] -= 1;
            let b = &mut open.bundle;
            rewritten.clear();
            macro_rules! read {
                ($record:ty => $section:expr) => {{
                    let record = <$record>::from_json(&line).map_err(fail)?;
                    record.write_line(&mut rewritten);
                    $section.push(record);
                }};
            }
            match section {
                0 => read!(MetricSnapshot => b.metrics),
                1 => read!(TopKRecord => b.topk),
                2 => read!(WindowRecord => b.windows),
                3 => read!(AlertEvent => b.alerts),
                4 => read!(SeriesSample => b.series),
                _ => read!(DecisionEvent => b.events),
            }
            if rewritten != raw {
                return Err(fail(departure(&line, &rewritten)));
            }
        }
        if let Some(done) = open {
            bundles.push(done.close(lines + 1, "end of document")?);
        }
        Ok(bundles)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{check, diff};

    /// A one-bundle document with every section populated.
    pub(crate) const DOC: &str = "\
{\"type\":\"meta\",\"schema\":\"vcdn-telemetry/1\",\"policy\":\"demo\",\"alpha\":2.0,\"interval_ms\":1000,\"topk_k\":8,\"metrics\":2,\"topk\":1,\"windows\":1,\"windows_dropped\":0,\"alerts\":1,\"samples\":1,\"events\":2,\"events_dropped\":7}\n\
{\"type\":\"metric\",\"name\":\"demo.x\",\"kind\":\"counter\",\"value\":4}\n\
{\"type\":\"metric\",\"name\":\"demo.h\",\"kind\":\"histogram\",\"value\":3,\"sum\":9,\"buckets\":[1,0,2]}\n\
{\"type\":\"topk\",\"shard\":0,\"rank\":1,\"video\":7,\"count\":3,\"err\":0}\n\
{\"type\":\"window\",\"index\":0,\"hit_bytes\":80,\"fill_bytes\":0,\"redirect_bytes\":0,\"served_requests\":1,\"redirected_requests\":0,\"efficiency\":1.0,\"redirect_rate\":0.0,\"filled_chunks\":0,\"evicted_chunks\":0,\"max_stream_requests\":1,\"queue_gap_count\":0,\"queue_gap_sum\":0,\"queue_gap_p99\":0,\"request_chunks_p99\":0}\n\
{\"type\":\"alert\",\"window\":0,\"rule\":\"demo-rule\",\"severity\":\"warning\",\"baseline\":0.9,\"observed\":null}\n\
{\"type\":\"sample\",\"t_ms\":0,\"hit_bytes\":80,\"fill_bytes\":0,\"redirect_bytes\":0,\"served_requests\":1,\"redirected_requests\":0,\"efficiency\":1.0,\"cum_hit_bytes\":80,\"cum_fill_bytes\":0,\"cum_redirect_bytes\":0,\"cum_efficiency\":1.0,\"occupancy_chunks\":1,\"capacity_chunks\":8,\"cache_age_ms\":null}\n\
{\"type\":\"event\",\"seq\":7,\"t_ms\":10,\"video\":3,\"chunk\":0,\"chunks\":2,\"policy\":\"demo\",\"verdict\":\"serve\",\"hit_chunks\":1,\"fill_chunks\":1,\"cost_serve\":null,\"cost_redirect\":null,\"cache_age_ms\":5.0,\"evicted\":0}\n\
{\"type\":\"event\",\"seq\":8,\"t_ms\":11,\"video\":3,\"chunk\":0,\"chunks\":2,\"policy\":\"demo\",\"verdict\":\"redirect\",\"hit_chunks\":0,\"fill_chunks\":0,\"cost_serve\":1.5,\"cost_redirect\":0.5,\"cache_age_ms\":5.0,\"evicted\":0}\n";

    fn refused(doc: &str) -> ReadError {
        TelemetryBundle::parse_jsonl(doc).expect_err("must be refused")
    }

    #[test]
    fn reads_every_section_and_writes_it_back() {
        let two = format!("{DOC}{DOC}");
        let bundles = TelemetryBundle::parse_jsonl(&two).unwrap();
        assert_eq!(bundles.len(), 2);
        let b = &bundles[1];
        assert_eq!(b.label(), "demo");
        assert_eq!(b.meta_get::<f64>("alpha"), Some(2.0));
        assert_eq!(b.meta_get::<u64>("alpha"), None, "a float is not a count");
        assert_eq!(b.meta_get::<u64>("interval_ms"), Some(1000));
        assert_eq!(b.meta_get::<u64>("events"), None, "counts are not entries");
        assert_eq!((b.metrics.len(), b.topk.len(), b.windows.len()), (2, 1, 1));
        assert_eq!((b.alerts.len(), b.series.len(), b.events.len()), (1, 1, 2));
        assert_eq!((b.windows_dropped, b.events_dropped), (0, 7));
        assert_eq!(b.metrics[1].histogram.as_ref().unwrap().sum, 9);
        assert!(b.alerts[0].observed.is_nan(), "null reads as not finite");
        assert_eq!(b.series[0].cum.hit_bytes, 80);
        assert_eq!(b.series[0].cum.served_requests, 0, "not on the wire");
        // One leaked name, however often it is met.
        assert!(std::ptr::eq(
            b.events[0].policy,
            bundles[0].events[1].policy
        ));
        let written: String = bundles.iter().map(TelemetryBundle::to_jsonl).collect();
        assert_eq!(written, two);
        assert_eq!(check(b), Vec::<String>::new());
        assert_eq!(diff(&bundles[..1], &bundles[1..]), Vec::<String>::new());
        assert_eq!(TelemetryBundle::parse_jsonl("").unwrap().len(), 0);
    }

    #[test]
    fn structural_damage_names_its_line() {
        // (`crates/bench/tests/obs_check_truncated.rs` moves every count
        // and cuts and swaps every section of a real bundle; these pin the
        // words.)
        let lines: Vec<&str> = DOC.split_inclusive('\n').collect();
        let without = |i: usize| [&lines[..i], &lines[i + 1..]].concat().concat();
        let with = |from: &str, to: &str| DOC.replacen(from, to, 1);
        let short = "`topk` line where the meta line on line 1 counts 1 more `metric` line(s)";
        let over = "`event` line where the meta line on line 1 counts no more lines";
        let ended = "end of document where the meta line on line 1 counts 1 more `event` line(s)";
        for (doc, line, what) in [
            ("not json\n".to_string(), 1, "unparseable"),
            (
                lines[1].to_string(),
                1,
                "`metric` line before any meta line",
            ),
            (
                with("\"type\":\"alert\"", "\"type\":\"alarm\""),
                6,
                "unknown line type \"alarm\"",
            ),
            (with("telemetry/1", "telemetry/2"), 1, "field `schema`"),
            (without(2), 3, short),
            (without(8), 9, ended),
            (format!("{DOC}{}", lines[8]), 10, over),
            // One past `u64::MAX` is not a count at all.
            (
                with("\"events\":2", "\"events\":18446744073709551616"),
                1,
                "field `events`",
            ),
            // The last line must end like every other, and every line be
            // spelled the writer's way.
            (DOC.trim_end().to_string(), 9, "line ending"),
            (
                with("}\n{\"type\":\"topk\"", "}\r\n{\"type\":\"topk\""),
                3,
                "line ending",
            ),
            (with("\"rank\":1", "\"rank\": 1"), 4, "spacing"),
        ] {
            let e = refused(&doc);
            assert_eq!(e.line, line, "{e}");
            assert!(e.what.contains(what), "{e} should say {what:?}");
        }
    }

    #[test]
    fn a_damaged_field_is_named() {
        for (from, to, line, what) in [
            (
                "\"value\":4",
                "\"value\":\"4\"",
                2,
                "field `value`: JSON type error",
            ),
            (
                "\"value\":4",
                "\"value\":4.0",
                2,
                "field `value`: JSON type error",
            ),
            ("\"value\":4", "\"value\":-4", 2, "field `value`"),
            (
                "\"kind\":\"counter\"",
                "\"kind\":\"tally\"",
                2,
                "field `kind`: unknown metric kind",
            ),
            // No kind is excluded from exports, so none is left to name a
            // wall-clock histogram.
            (
                "\"kind\":\"histogram\"",
                "\"kind\":\"timing_histogram\"",
                3,
                "field `kind`: unknown metric kind \"timing_histogram\"",
            ),
            (",\"sum\":9", "", 3, "missing field `sum`"),
            (
                "\"value\":4}",
                "\"value\":4,\"sum\":0}",
                2,
                "unexpected field `sum`",
            ),
            ("\"rank\":1", "\"rank\":4294967296", 4, "field `rank`"),
            (
                "\"shard\":0,\"rank\":1",
                "\"rank\":1,\"shard\":0",
                4,
                "field `rank` where the writer puts `shard`",
            ),
            (
                "\"efficiency\":1.0,\"redirect_rate\"",
                "\"efficiency\":1,\"redirect_rate\"",
                5,
                "field `efficiency`: 1 where the writer writes 1.0",
            ),
            (
                "\"severity\":\"warning\"",
                "\"severity\":\"dire\"",
                6,
                "field `severity`",
            ),
            (
                "\"rule\":\"demo-rule\"",
                "\"rule_name\":\"demo-rule\"",
                6,
                "missing field `rule`",
            ),
            (
                "\"cache_age_ms\":null}",
                "\"cache_age_ms\":null,\"note\":1}",
                7,
                "unexpected field `note`",
            ),
            (
                "\"verdict\":\"serve\"",
                "\"verdict\":\"maybe\"",
                8,
                "field `verdict`",
            ),
            (
                "\"verdict\":\"redirect\",\"hit_chunks\":0",
                "\"verdict\":\"redirect\",\"hit_chunks\":2",
                9,
                "field `hit_chunks`: 2 where the writer writes 0",
            ),
            (
                "\"seq\":7",
                "\"seq\":7,\"seq\":9",
                8,
                "field `seq` where the writer puts `t_ms`",
            ),
            // Meta-line damage is found when the bundle closes, and still
            // reported on the meta line.
            (
                "\"topk\":1,\"windows\":1",
                "\"windows\":1,\"topk\":1",
                1,
                "field `windows` where the writer puts `topk`",
            ),
            (
                ",\"events_dropped\":7",
                "",
                1,
                "missing field `events_dropped`",
            ),
            (
                "\"events_dropped\":7",
                "\"events_dropped\":7,\"extra\":1",
                1,
                "where the writer puts `metrics`",
            ),
        ] {
            assert!(DOC.contains(from), "{from}");
            let e = refused(&DOC.replacen(from, to, 1));
            assert_eq!(e.line, line, "{from} -> {to}: {e}");
            assert!(e.what.contains(what), "{e} should say {what:?}");
        }
    }
}
