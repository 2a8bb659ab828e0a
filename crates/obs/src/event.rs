//! Structured per-request decision events and the bounded ring that
//! collects them.
//!
//! Every replayed request produces one compact [`DecisionEvent`] carrying
//! everything needed to explain the serve-vs-redirect decision post-hoc:
//! the per-policy cost terms (`iat·α_F2R` vs cache age for xLRU's Eq. 5;
//! `E[serve]` vs `E[redirect]` for Cafe's Eqs. 6–7 and Psychic's
//! Eqs. 13–14), the cache age at decision time, and the outcome's
//! hit/fill/evict accounting. Events flow through an [`EventRing`] — a
//! bounded buffer that keeps the most recent `capacity` events and counts
//! what it dropped, so tracing a month-long replay has fixed memory cost.

use std::collections::BTreeSet;

use vcdn_types::json::{Json, ObjectWriter};
use vcdn_types::Request;

use crate::read::field;

/// The cost/age detail a policy computed for its most recent decision.
///
/// Policies that skip the cost comparison on a given request (warm-up
/// admits, full hits, never-seen-video redirects, always-serve baselines)
/// leave the corresponding fields `None`; the decision is then explained
/// by the `verdict` alone.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionDetail {
    /// The serve-side quantity: xLRU's `IAT·α_F2R` (Eq. 5 left side),
    /// Cafe's `E[serve]` (Eq. 6), Psychic's Eq. 13.
    pub cost_serve: Option<f64>,
    /// The redirect-side quantity: xLRU's cache age (Eq. 5 right side),
    /// Cafe's `E[redirect]` (Eq. 7), Psychic's Eq. 14.
    pub cost_redirect: Option<f64>,
    /// The policy's cache age (ms) at decision time, where defined.
    pub cache_age_ms: Option<f64>,
}

impl DecisionDetail {
    /// Detail with only a cache age (cost comparison skipped).
    pub fn age_only(cache_age_ms: f64) -> DecisionDetail {
        DecisionDetail {
            cost_serve: None,
            cost_redirect: None,
            cache_age_ms: Some(cache_age_ms),
        }
    }

    /// Detail with both cost terms and the cache age.
    pub fn costs(cost_serve: f64, cost_redirect: f64, cache_age_ms: f64) -> DecisionDetail {
        DecisionDetail {
            cost_serve: Some(cost_serve),
            cost_redirect: Some(cost_redirect),
            cache_age_ms: Some(cache_age_ms),
        }
    }
}

/// The decision outcome recorded in an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Served locally with this hit/fill split.
    Serve {
        /// Requested chunks already on disk.
        hit_chunks: u64,
        /// Requested chunks cache-filled from upstream.
        filled_chunks: u64,
    },
    /// Redirected to an alternative server.
    Redirect,
}

impl Verdict {
    /// Short name used in JSONL exports: `"serve"` or `"redirect"`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Serve { .. } => "serve",
            Verdict::Redirect => "redirect",
        }
    }
}

/// One replayed request's decision record.
///
/// Serialised as a flat JSON object (see `OBSERVABILITY.md` for the field
/// reference); `cost_serve`, `cost_redirect` and `cache_age_ms` are
/// `null` when the policy skipped the cost comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Request sequence number within the replay (0-based).
    pub seq: u64,
    /// Request arrival time (trace ms).
    pub t_ms: u64,
    /// Requested video id.
    pub video: u64,
    /// First requested chunk index.
    pub chunk: u32,
    /// Number of requested chunks.
    pub chunks: u32,
    /// The deciding policy's name.
    pub policy: &'static str,
    /// Serve or redirect, with the hit/fill split.
    pub verdict: Verdict,
    /// Serve-side cost term (see [`DecisionDetail::cost_serve`]).
    pub cost_serve: Option<f64>,
    /// Redirect-side cost term (see [`DecisionDetail::cost_redirect`]).
    pub cost_redirect: Option<f64>,
    /// Cache age (ms) at decision time, where the policy defines one.
    pub cache_age_ms: Option<f64>,
    /// Chunks evicted by this decision.
    pub evicted: u64,
}

impl DecisionEvent {
    /// Builds an event from the replayed request plus the policy's
    /// decision outputs. `chunk`/`chunks` describe the request's chunk
    /// range under the replay's chunk size.
    #[allow(clippy::too_many_arguments)]
    pub fn from_decision(
        seq: u64,
        request: &Request,
        chunk: u32,
        chunks: u32,
        policy: &'static str,
        verdict: Verdict,
        detail: DecisionDetail,
        evicted: u64,
    ) -> DecisionEvent {
        DecisionEvent {
            seq,
            t_ms: request.t.as_millis(),
            video: request.video.0,
            chunk,
            chunks,
            policy,
            verdict,
            cost_serve: detail.cost_serve,
            cost_redirect: detail.cost_redirect,
            cache_age_ms: detail.cache_age_ms,
            evicted,
        }
    }

    /// Appends this event's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        let (hit, fill) = match self.verdict {
            Verdict::Serve {
                hit_chunks,
                filled_chunks,
            } => (hit_chunks, filled_chunks),
            Verdict::Redirect => (0, 0),
        };
        ObjectWriter::new(out)
            .str("type", "event")
            .u64("seq", self.seq)
            .u64("t_ms", self.t_ms)
            .u64("video", self.video)
            .u64("chunk", self.chunk.into())
            .u64("chunks", self.chunks.into())
            .str("policy", self.policy)
            .str("verdict", self.verdict.name())
            .u64("hit_chunks", hit)
            .u64("fill_chunks", fill)
            .opt_f64("cost_serve", self.cost_serve)
            .opt_f64("cost_redirect", self.cost_redirect)
            .opt_f64("cache_age_ms", self.cache_age_ms)
            .u64("evicted", self.evicted)
            .finish_line();
    }

    /// Reads the event [`DecisionEvent::write_line`] wrote. A redirect
    /// has no chunk split to read: one that carries hit or fill chunks
    /// re-serialises with zeros and is refused by the reader's round trip.
    pub(crate) fn from_json(line: &Json) -> Result<DecisionEvent, String> {
        let verdict: String = field(line, "verdict")?;
        let verdict = match verdict.as_str() {
            "serve" => Verdict::Serve {
                hit_chunks: field(line, "hit_chunks")?,
                filled_chunks: field(line, "fill_chunks")?,
            },
            "redirect" => Verdict::Redirect,
            _ => return Err(format!("field `verdict`: unknown verdict {verdict:?}")),
        };
        Ok(DecisionEvent {
            seq: field(line, "seq")?,
            t_ms: field(line, "t_ms")?,
            video: field(line, "video")?,
            chunk: field(line, "chunk")?,
            chunks: field(line, "chunks")?,
            policy: intern(field(line, "policy")?),
            verdict,
            cost_serve: field(line, "cost_serve")?,
            cost_redirect: field(line, "cost_redirect")?,
            cache_age_ms: field(line, "cache_age_ms")?,
            evicted: field(line, "evicted")?,
        })
    }
}

/// A `'static` copy of a policy name read from a bundle:
/// [`DecisionEvent::policy`] is `&'static str` because every recorder
/// holds its policy's name that way. Each distinct name is leaked once
/// per process — a handful for any bundle the writer produced.
#[expect(
    clippy::disallowed_types,
    reason = "one of the workspace's two locks, a leaf: the process-wide name set, locked only while one name is looked up"
)]
fn intern(name: String) -> &'static str {
    static NAMES: std::sync::Mutex<BTreeSet<&'static str>> = std::sync::Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("no panic while interning");
    if !names.contains(name.as_str()) {
        names.insert(Box::leak(name.clone().into_boxed_str()));
    }
    names.get(name.as_str()).expect("interned above")
}

/// A bounded ring buffer of [`DecisionEvent`]s: keeps the newest
/// `capacity` events, counts the rest as dropped.
///
/// # Examples
///
/// ```
/// use vcdn_obs::{DecisionEvent, EventRing, Verdict};
///
/// let mut ring = EventRing::new(2);
/// for seq in 0..5 {
///     ring.push(DecisionEvent {
///         seq,
///         t_ms: seq,
///         video: 1,
///         chunk: 0,
///         chunks: 1,
///         policy: "lru",
///         verdict: Verdict::Redirect,
///         cost_serve: None,
///         cost_redirect: None,
///         cache_age_ms: None,
///         evicted: 0,
///     });
/// }
/// let seqs: Vec<u64> = ring.iter_oldest_first().map(|e| e.seq).collect();
/// assert_eq!(seqs, vec![3, 4]); // newest two survive, in replay order
/// assert_eq!(ring.dropped(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<DecisionEvent>,
    capacity: usize,
    /// Index of the oldest retained event within `buf`.
    head: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "ring capacity must be > 0");
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, displacing the oldest once full.
    pub fn push(&mut self, event: DecisionEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events displaced so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events in replay (oldest-first) order.
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = &DecisionEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::json::{self, Json};

    fn event(seq: u64) -> DecisionEvent {
        DecisionEvent {
            seq,
            t_ms: seq * 10,
            video: 7,
            chunk: 2,
            chunks: 3,
            policy: "cafe",
            verdict: Verdict::Serve {
                hit_chunks: 2,
                filled_chunks: 1,
            },
            cost_serve: Some(1.5),
            cost_redirect: Some(2.0),
            cache_age_ms: Some(100.0),
            evicted: 1,
        }
    }

    fn parse_line(e: &DecisionEvent) -> Json {
        let mut line = String::new();
        e.write_line(&mut line);
        json::parse(&line).unwrap()
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut ring = EventRing::new(3);
        for seq in 0..10 {
            ring.push(event(seq));
        }
        let seqs: Vec<u64> = ring.iter_oldest_first().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_wraps_at_every_phase() {
        for capacity in 1..5usize {
            let mut ring = EventRing::new(capacity);
            for seq in 0..13u64 {
                ring.push(event(seq));
                let seqs: Vec<u64> = ring.iter_oldest_first().map(|e| e.seq).collect();
                let first = (seq + 1).saturating_sub(capacity as u64);
                assert!(seqs.iter().copied().eq(first..=seq), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let mut ring = EventRing::new(8);
        ring.push(event(0));
        ring.push(event(1));
        assert_eq!(ring.dropped(), 0);
        let seqs: Vec<u64> = ring.iter_oldest_first().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn event_serialises_with_stable_fields() {
        let parsed = parse_line(&event(4));
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("event"));
        assert_eq!(parsed.get("verdict").and_then(Json::as_str), Some("serve"));
        assert_eq!(parsed.get("seq"), Some(&Json::Int(4)));
        assert_eq!(parsed.get("hit_chunks"), Some(&Json::Int(2)));
        assert_eq!(parsed.get("cost_serve"), Some(&Json::Float(1.5)));
    }

    #[test]
    fn redirect_event_serialises_null_costs() {
        let e = DecisionEvent {
            verdict: Verdict::Redirect,
            cost_serve: None,
            cost_redirect: None,
            cache_age_ms: None,
            ..event(1)
        };
        let parsed = parse_line(&e);
        assert_eq!(
            parsed.get("verdict").and_then(Json::as_str),
            Some("redirect")
        );
        assert_eq!(parsed.get("cost_serve"), Some(&Json::Null));
        assert_eq!(parsed.get("hit_chunks"), Some(&Json::Int(0)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        EventRing::new(0);
    }
}
