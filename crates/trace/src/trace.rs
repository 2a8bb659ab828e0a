//! The trace container: an ordered request log plus its provenance, with
//! JSON-lines persistence.
//!
//! The paper replays "anonymized video request logs" (§9); here the log is
//! either generated synthetically ([`crate::generator::TraceGenerator`]) or
//! loaded from disk. The on-disk format is one JSON object per line — a
//! metadata header followed by one line per request — so multi-gigabyte
//! traces stream without loading intermediary DOM structures.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use vcdn_types::json::{self, JsonError};
use vcdn_types::{impl_json_struct, DurationMs, Request, Timestamp};

/// Provenance of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Profile or source name.
    pub name: String,
    /// Generator seed (0 for externally loaded traces).
    pub seed: u64,
    /// Covered duration from the replay epoch.
    pub duration: DurationMs,
    /// Free-form description of how the trace was produced.
    pub description: String,
}

impl_json_struct!(TraceMeta {
    name,
    seed,
    duration,
    description,
});

/// An ordered request log.
///
/// Invariant: `requests` are sorted by non-decreasing timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Provenance metadata.
    pub meta: TraceMeta,
    /// Time-ordered requests.
    pub requests: Vec<Request>,
}

/// Errors loading or saving traces.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A line failed to parse as JSON.
    Parse { line: usize, source: JsonError },
    /// The file was empty (missing the metadata header).
    MissingHeader,
    /// Requests were not in timestamp order.
    OutOfOrder { line: usize },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse { line, source } => {
                write!(f, "trace parse error on line {line}: {source}")
            }
            TraceIoError::MissingHeader => write!(f, "trace file missing metadata header"),
            TraceIoError::OutOfOrder { line } => {
                write!(f, "trace requests out of timestamp order at line {line}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl Trace {
    /// Builds a trace from already-sorted requests.
    ///
    /// # Panics
    ///
    /// Panics if requests are not sorted by non-decreasing timestamp.
    pub fn new(meta: TraceMeta, requests: Vec<Request>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].t <= w[1].t),
            "trace requests must be time-ordered"
        );
        Trace { meta, requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Refuses a trace with no requests — what a generator profile scaled
    /// or cut so short that no session starts produces: every replay of it
    /// would print a table of zeros. Each command that generates a trace
    /// calls this before it writes any file, table or bundle, and turns
    /// the `Err` into its one error line.
    pub fn require_requests(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err(format!(
                "the generated trace holds no requests ({}, {}): raise the scale or the days",
                self.meta.description, self.meta.duration
            ));
        }
        Ok(())
    }

    /// Total requested bytes across all requests.
    pub fn total_requested_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.byte_len()).sum()
    }

    /// The timestamp of the last request, or the epoch for empty traces.
    pub fn end_time(&self) -> Timestamp {
        self.requests
            .last()
            .map(|r| r.t)
            .unwrap_or(Timestamp::EPOCH)
    }

    /// Returns the sub-trace with `t` in `[from, to)`, preserving order.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> Trace {
        let requests: Vec<Request> = self
            .requests
            .iter()
            .filter(|r| r.t >= from && r.t < to)
            .copied()
            .collect();
        Trace {
            meta: TraceMeta {
                description: format!("{} [window {}..{})", self.meta.description, from, to),
                duration: to - from,
                ..self.meta.clone()
            },
            requests,
        }
    }

    /// Writes the trace as JSON lines: a metadata header line followed by
    /// one request per line.
    pub fn save_jsonl(&self, path: &Path) -> Result<(), TraceIoError> {
        let mut w = BufWriter::new(File::create(path)?);
        json::to_writer(&mut w, &self.meta)?;
        w.write_all(b"\n")?;
        for r in &self.requests {
            json::to_writer(&mut w, r)?;
            w.write_all(b"\n")?;
        }
        w.flush()?;
        Ok(())
    }

    /// Loads a trace saved by [`Trace::save_jsonl`], validating request
    /// order.
    pub fn load_jsonl(path: &Path) -> Result<Trace, TraceIoError> {
        let reader = BufReader::new(File::open(path)?);
        let mut lines = reader.lines();
        let header = lines.next().ok_or(TraceIoError::MissingHeader)??;
        let meta: TraceMeta =
            json::from_str(&header).map_err(|source| TraceIoError::Parse { line: 1, source })?;
        let mut requests = Vec::new();
        let mut last = Timestamp::EPOCH;
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let r: Request = json::from_str(&line).map_err(|source| TraceIoError::Parse {
                line: i + 2,
                source,
            })?;
            if r.t < last {
                return Err(TraceIoError::OutOfOrder { line: i + 2 });
            }
            last = r.t;
            requests.push(r);
        }
        Ok(Trace { meta, requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::{ByteRange, VideoId};

    fn sample_trace() -> Trace {
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(10)),
            Request::new(VideoId(2), ByteRange::new(0, 49).unwrap(), Timestamp(20)),
            Request::new(VideoId(1), ByteRange::new(100, 199).unwrap(), Timestamp(30)),
        ];
        Trace::new(
            TraceMeta {
                name: "test".into(),
                seed: 7,
                duration: DurationMs::from_secs(1),
                description: "unit test trace".into(),
            },
            reqs,
        )
    }

    #[test]
    fn totals() {
        let t = sample_trace();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.total_requested_bytes(), 250);
        assert_eq!(t.end_time(), Timestamp(30));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_requests_rejected() {
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 9).unwrap(), Timestamp(30)),
            Request::new(VideoId(1), ByteRange::new(0, 9).unwrap(), Timestamp(10)),
        ];
        let _ = Trace::new(sample_trace().meta, reqs);
    }

    #[test]
    fn window_filters_half_open() {
        let t = sample_trace();
        let w = t.window(Timestamp(10), Timestamp(30));
        assert_eq!(w.len(), 2);
        assert!(w.requests.iter().all(|r| r.t < Timestamp(30)));
        let empty = t.window(Timestamp(100), Timestamp(200));
        assert!(empty.is_empty());
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("vcdn-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        t.save_jsonl(&path).unwrap();
        let back = Trace::load_jsonl(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage_and_disorder() {
        let dir = std::env::temp_dir().join("vcdn-trace-test");
        std::fs::create_dir_all(&dir).unwrap();

        let p = dir.join("empty.jsonl");
        std::fs::write(&p, "").unwrap();
        assert!(matches!(
            Trace::load_jsonl(&p),
            Err(TraceIoError::MissingHeader)
        ));

        let p = dir.join("badline.jsonl");
        let t = sample_trace();
        let meta = json::to_string(&t.meta);
        std::fs::write(&p, format!("{meta}\nnot-json\n")).unwrap();
        assert!(matches!(
            Trace::load_jsonl(&p),
            Err(TraceIoError::Parse { line: 2, .. })
        ));

        let p = dir.join("disorder.jsonl");
        let r1 = json::to_string(&t.requests[2]);
        let r2 = json::to_string(&t.requests[0]);
        std::fs::write(&p, format!("{meta}\n{r1}\n{r2}\n")).unwrap();
        assert!(matches!(
            Trace::load_jsonl(&p),
            Err(TraceIoError::OutOfOrder { line: 3 })
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let dir = std::env::temp_dir().join("vcdn-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("blank.jsonl");
        let t = sample_trace();
        let meta = json::to_string(&t.meta);
        let r1 = json::to_string(&t.requests[0]);
        std::fs::write(&p, format!("{meta}\n\n{r1}\n\n")).unwrap();
        let back = Trace::load_jsonl(&p).unwrap();
        assert_eq!(back.len(), 1);
    }
}
