//! In-memory spans around the calls into each layer, and the time ledger
//! read off them.
//!
//! Every pass — traced or not — opens a `pass` root span and one child
//! span per step (`trace.decode`, `core.build`, `sim.replay`, …), each
//! with its own pair of clock reads, so time nobody claimed shows up as
//! a ledger that does not close. A traced pass additionally hangs
//! *aggregate* spans under its drive step: one `core.decide` row per
//! shard standing for many `handle_request` calls, with `count` calls
//! and `busy_ns` summed inside them. A plain span is the special case
//! `count = 1`, `busy_ns = end − start`.
//!
//! Self time is a span's `busy_ns` minus its children's `busy_ns`.

use std::time::Instant;

use vcdn_types::json::Json;

/// One recorded span. `id` and `parent` are local to the pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span within its pass.
    pub id: u32,
    /// The span that caused this one; `None` for the `pass` root.
    pub parent: Option<u32>,
    /// Layer-qualified step name.
    pub name: &'static str,
    /// The shard an aggregate stands for (0 outside the engine); `None`
    /// on step spans.
    pub shard: Option<u32>,
    /// First entry, in ns since the run's origin.
    pub start_ns: u64,
    /// Last exit, in ns since the run's origin.
    pub end_ns: u64,
    /// Calls the span stands for.
    pub count: u64,
    /// Time spent inside those calls.
    pub busy_ns: u64,
}

/// The spans of one pass.
#[derive(Debug, Clone)]
pub struct PassSpans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Name of every pass's root span.
pub const ROOT: &str = "pass";

impl PassSpans {
    /// Starts a pass: opens the root span on the run-wide clock `origin`.
    pub fn start(origin: Instant) -> PassSpans {
        let mut spans = PassSpans {
            origin,
            spans: Vec::with_capacity(16),
            open: Vec::with_capacity(4),
        };
        spans.begin(ROOT);
        spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            shard: None,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in the harness.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Closes the root span; the pass's wall time is final afterwards.
    pub fn finish(&mut self) {
        self.end(0);
    }

    /// Hangs an aggregate under `parent`: `count` calls on `shard`
    /// between `start_ns` and `end_ns` that were busy for `busy_ns` in
    /// total.
    pub fn aggregate(
        &mut self,
        parent: u32,
        name: &'static str,
        shard: u32,
        (start_ns, end_ns): (u64, u64),
        count: u64,
        busy_ns: u64,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            shard: Some(shard),
            start_ns,
            end_ns,
            count,
            busy_ns,
        });
    }

    /// The span with `id`.
    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// The spans in tree order — every parent right before its children —
    /// each with its depth below the root.
    pub fn tree(&self) -> Vec<(usize, &Span)> {
        fn visit<'a>(spans: &'a [Span], id: u32, depth: usize, out: &mut Vec<(usize, &'a Span)>) {
            out.push((depth, &spans[id as usize]));
            for child in spans.iter().filter(|s| s.parent == Some(id)) {
                visit(spans, child.id, depth + 1, out);
            }
        }
        let mut out = Vec::with_capacity(self.spans.len());
        visit(&self.spans, 0, 0, &mut out);
        out
    }

    /// Wall time of the pass in seconds.
    pub fn wall_s(&self) -> f64 {
        self.spans[0].busy_ns as f64 / 1e9
    }

    /// Busy seconds summed over every span called `name` (0 if none).
    pub fn busy_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Busy time of `id` not covered by its children, in ns.
    pub fn self_ns(&self, id: u32) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id as usize].busy_ns.saturating_sub(children)
    }

    /// How far the top-level rows are from summing to the pass wall, as a
    /// percentage of the wall: the share of the pass no step accounts for.
    pub fn closure_pct(&self) -> f64 {
        let wall = self.spans[0].busy_ns;
        if wall == 0 {
            return 0.0;
        }
        self.self_ns(0) as f64 / wall as f64 * 100.0
    }

    /// One JSON line per span, tagged with the pass id shared by all of
    /// them and the driver that ran the pass.
    pub fn to_jsonl(&self, pass: u32, driver: &str, out: &mut String) {
        for s in &self.spans {
            let mut fields = vec![
                ("pass".to_string(), Json::Int(pass.into())),
                ("driver".to_string(), Json::Str(driver.to_string())),
                ("id".to_string(), Json::Int(s.id.into())),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p.into())),
                ),
                ("name".to_string(), Json::Str(s.name.to_string())),
            ];
            if let Some(shard) = s.shard {
                fields.push(("shard".to_string(), Json::Int(shard.into())));
            }
            fields.push(("start_ns".to_string(), Json::Int(s.start_ns.into())));
            fields.push(("end_ns".to_string(), Json::Int(s.end_ns.into())));
            fields.push(("count".to_string(), Json::Int(s.count.into())));
            fields.push(("busy_ns".to_string(), Json::Int(s.busy_ns.into())));
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut p = PassSpans::start(Instant::now());
        let a = p.begin("a");
        let b = p.begin("b");
        p.end(b);
        p.end(a);
        let c = p.begin("c");
        p.end(c);
        p.finish();
        assert_eq!(p.span(a).parent, Some(0));
        assert_eq!(p.span(b).parent, Some(a));
        assert_eq!(p.span(c).parent, Some(0));
        assert_eq!(p.self_ns(a), p.span(a).busy_ns - p.span(b).busy_ns);
        // Root self time is what no top-level step claimed.
        let claimed = p.span(a).busy_ns + p.span(c).busy_ns;
        assert_eq!(p.self_ns(0), p.span(0).busy_ns - claimed);
        assert!(p.closure_pct() >= 0.0 && p.closure_pct() <= 100.0);
    }

    #[test]
    fn aggregates_count_toward_the_parent_ledger() {
        let mut p = PassSpans::start(Instant::now());
        let drive = p.begin("sim.replay");
        p.end(drive);
        p.finish();
        let busy = p.span(drive).busy_ns;
        p.aggregate(drive, "core.decide", 3, (0, 1), 10, busy / 2);
        assert_eq!(p.self_ns(drive), busy - busy / 2);
        // Tree order puts the late-added aggregate under its parent.
        let order: Vec<(usize, &str)> = p.tree().iter().map(|(d, s)| (*d, s.name)).collect();
        assert_eq!(order, [(0, ROOT), (1, "sim.replay"), (2, "core.decide")]);
        assert_eq!(p.busy_s("core.decide"), (busy / 2) as f64 / 1e9);
        let mut out = String::new();
        p.to_jsonl(7, "engine", &mut out);
        assert_eq!(out.lines().count(), 3);
        let last = vcdn_types::json::parse(out.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("pass"), Some(&Json::Int(7)));
        assert_eq!(last.get("shard"), Some(&Json::Int(3)));
        assert_eq!(last.get("count"), Some(&Json::Int(10)));
        assert_eq!(last.get("parent"), Some(&Json::Int(drive.into())));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn out_of_order_close_is_a_harness_bug() {
        let mut p = PassSpans::start(Instant::now());
        let a = p.begin("a");
        let _b = p.begin("b");
        p.end(a);
    }
}
