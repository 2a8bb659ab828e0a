//! Compact binary trace format.
//!
//! JSON lines are convenient but cost ~100 bytes per request; a month of
//! a busy server is millions of requests. This module defines `VCTB`
//! ("video-CDN trace, binary"), a little-endian record format:
//!
//! ```text
//! header:  magic "VCTB" | u32 version | u64 seed | u64 duration_ms
//!          | u32 name_len | name bytes | u32 desc_len | desc bytes
//!          | u64 request_count
//! record:  u64 video | u64 byte_start | u64 byte_end | u64 t_ms   (32 B)
//! footer:  u64 xor-checksum of all record words
//! ```
//!
//! Loading validates the magic, version, request count, timestamp
//! monotonicity, range validity and the checksum, so a truncated or
//! corrupted file is rejected rather than silently misread.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use vcdn_types::{ByteRange, DurationMs, Request, Timestamp, VideoId};

use crate::trace::{Trace, TraceMeta};

/// File magic.
const MAGIC: &[u8; 4] = b"VCTB";
/// Current format version.
const VERSION: u32 = 1;

/// Errors reading or writing binary traces.
#[derive(Debug)]
pub enum BinTraceError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `VCTB` magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// A length or count field is implausible for the file size.
    CorruptHeader(String),
    /// A header string is longer than a VCTB header holds; nothing was
    /// written.
    StringTooLong {
        /// `"name"` or `"description"`.
        field: &'static str,
        /// Its length in bytes.
        len: usize,
    },
    /// A request record is invalid (range or time ordering).
    CorruptRecord { index: u64, reason: String },
    /// The footer checksum does not match.
    ChecksumMismatch,
}

impl std::fmt::Display for BinTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinTraceError::Io(e) => write!(f, "binary trace I/O error: {e}"),
            BinTraceError::BadMagic => write!(f, "not a VCTB trace file"),
            BinTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported VCTB version {v} (supported: {VERSION})")
            }
            BinTraceError::CorruptHeader(why) => write!(f, "corrupt VCTB header: {why}"),
            BinTraceError::StringTooLong { field, len } => {
                write!(
                    f,
                    "trace {field} is {len} bytes; a VCTB header holds {MAX_STRING}"
                )
            }
            BinTraceError::CorruptRecord { index, reason } => {
                write!(f, "corrupt VCTB record #{index}: {reason}")
            }
            BinTraceError::ChecksumMismatch => write!(f, "VCTB checksum mismatch"),
        }
    }
}

impl std::error::Error for BinTraceError {}

impl From<std::io::Error> for BinTraceError {
    fn from(e: std::io::Error) -> Self {
        BinTraceError::Io(e)
    }
}

/// Upper bound on header string lengths (sanity check against garbage).
const MAX_STRING: u32 = 1 << 16;

/// Read-buffer size of [`load_binary`]: large enough that a record read is
/// a copy out of the buffer, small enough that the file is never resident
/// beside the decoded trace.
const READ_BUFFER: usize = 64 << 10;

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// A header string's length field and bytes, or why it does not fit.
fn header_string<'a>(field: &'static str, s: &'a str) -> Result<(u32, &'a [u8]), BinTraceError> {
    u32::try_from(s.len())
        .ok()
        .filter(|&len| len <= MAX_STRING)
        .map(|len| (len, s.as_bytes()))
        .ok_or(BinTraceError::StringTooLong {
            field,
            len: s.len(),
        })
}

/// Saves a trace in the `VCTB` binary format.
///
/// A name or description longer than [`load_binary`] accepts is refused
/// with [`BinTraceError::StringTooLong`] before the file is created.
pub fn save_binary(trace: &Trace, path: &Path) -> Result<(), BinTraceError> {
    let name = header_string("name", &trace.meta.name)?;
    let desc = header_string("description", &trace.meta.description)?;
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u64(&mut w, trace.meta.seed)?;
    write_u64(&mut w, trace.meta.duration.as_millis())?;
    for (len, bytes) in [name, desc] {
        write_u32(&mut w, len)?;
        w.write_all(bytes)?;
    }
    write_u64(&mut w, trace.requests.len() as u64)?;
    let mut checksum = 0u64;
    for r in &trace.requests {
        let words = [r.video.0, r.bytes.start, r.bytes.end, r.t.as_millis()];
        for wd in words {
            write_u64(&mut w, wd)?;
            checksum ^= wd.rotate_left((checksum % 63) as u32);
        }
    }
    write_u64(&mut w, checksum)?;
    w.flush()?;
    Ok(())
}

/// Loads a trace saved by [`save_binary`], validating structure, record
/// sanity and the checksum.
pub fn load_binary(path: &Path) -> Result<Trace, BinTraceError> {
    let mut r = BufReader::with_capacity(READ_BUFFER, File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinTraceError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(BinTraceError::UnsupportedVersion(version));
    }
    let seed = read_u64(&mut r)?;
    let duration = DurationMs(read_u64(&mut r)?);
    let read_string = |r: &mut BufReader<File>| -> Result<String, BinTraceError> {
        let len = read_u32(r)?;
        if len > MAX_STRING {
            return Err(BinTraceError::CorruptHeader(format!(
                "string length {len} exceeds {MAX_STRING}"
            )));
        }
        let mut buf = vec![0u8; len as usize];
        r.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| BinTraceError::CorruptHeader("non-UTF-8 string".into()))
    };
    let name = read_string(&mut r)?;
    let description = read_string(&mut r)?;
    let count = read_u64(&mut r)?;

    let mut requests = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut checksum = 0u64;
    let mut last_t = 0u64;
    for index in 0..count {
        // One read per record, not per word.
        let mut record = [0u8; 32];
        r.read_exact(&mut record)?;
        let mut words = [0u64; 4];
        for (wd, bytes) in words.iter_mut().zip(record.as_chunks::<8>().0) {
            *wd = u64::from_le_bytes(*bytes);
            checksum ^= wd.rotate_left((checksum % 63) as u32);
        }
        let [video, start, end, t] = words;
        if start > end {
            return Err(BinTraceError::CorruptRecord {
                index,
                reason: format!("inverted byte range {start}..{end}"),
            });
        }
        if t < last_t {
            return Err(BinTraceError::CorruptRecord {
                index,
                reason: format!("timestamp {t} before previous {last_t}"),
            });
        }
        last_t = t;
        requests.push(Request::new(
            VideoId(video),
            ByteRange::new(start, end).expect("checked above"),
            Timestamp(t),
        ));
    }
    let stored = read_u64(&mut r)?;
    if stored != checksum {
        return Err(BinTraceError::ChecksumMismatch);
    }
    Ok(Trace {
        meta: TraceMeta {
            name,
            seed,
            duration,
            description,
        },
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::TraceGenerator, profile::ServerProfile};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vcdn-binfmt-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 3).generate(DurationMs::from_hours(6))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let p = tmp("roundtrip.vctb");
        save_binary(&t, &p).expect("save");
        let back = load_binary(&p).expect("load");
        assert_eq!(back, t);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn binary_is_much_smaller_than_jsonl() {
        let t = sample();
        let pb = tmp("size.vctb");
        let pj = tmp("size.jsonl");
        save_binary(&t, &pb).expect("save bin");
        t.save_jsonl(&pj).expect("save jsonl");
        let sb = std::fs::metadata(&pb).expect("bin meta").len();
        let sj = std::fs::metadata(&pj).expect("jsonl meta").len();
        assert!(
            sb < sj,
            "binary ({sb}B) should be smaller than JSONL ({sj}B)"
        );
        // Exactly 32 bytes per record plus a bounded header/footer.
        let overhead = sb - 32 * t.len() as u64;
        assert!(
            overhead < 256 + t.meta.name.len() as u64 + t.meta.description.len() as u64,
            "unexpected binary overhead: {overhead}B"
        );
        std::fs::remove_file(&pb).ok();
        std::fs::remove_file(&pj).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let p = tmp("magic.vctb");
        std::fs::write(&p, b"NOPE0000000000000000000000000000").expect("write");
        assert!(matches!(load_binary(&p), Err(BinTraceError::BadMagic)));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_wrong_version() {
        let t = sample();
        let p = tmp("version.vctb");
        save_binary(&t, &p).expect("save");
        let mut bytes = std::fs::read(&p).expect("read");
        bytes[4] = 99; // version field
        std::fs::write(&p, &bytes).expect("rewrite");
        assert!(matches!(
            load_binary(&p),
            Err(BinTraceError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn detects_payload_corruption() {
        let t = sample();
        let p = tmp("corrupt.vctb");
        save_binary(&t, &p).expect("save");
        let mut bytes = std::fs::read(&p).expect("read");
        // Flip a bit in the middle of the record area.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).expect("rewrite");
        // Either a structural check or the checksum must catch it.
        assert!(load_binary(&p).is_err(), "corruption not detected");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn detects_truncation() {
        let t = sample();
        let p = tmp("trunc.vctb");
        save_binary(&t, &p).expect("save");
        let bytes = std::fs::read(&p).expect("read");
        std::fs::write(&p, &bytes[..bytes.len() - 9]).expect("rewrite");
        assert!(load_binary(&p).is_err(), "truncation not detected");
        std::fs::remove_file(&p).ok();
    }

    /// The bytes of a four-request trace saved at `p`, and the offset of
    /// its first record.
    fn small(p: &Path) -> (Vec<u8>, usize) {
        let mut t = sample();
        t.requests.truncate(4);
        save_binary(&t, p).expect("save");
        let bytes = std::fs::read(p).expect("read");
        let records = bytes.len() - 8 - 32 * t.len();
        (bytes, records)
    }

    #[test]
    fn truncation_at_every_offset_is_an_error() {
        let p = tmp("every-offset.vctb");
        let (bytes, _) = small(&p);
        for len in 0..bytes.len() {
            std::fs::write(&p, &bytes[..len]).expect("rewrite");
            assert!(load_binary(&p).is_err(), "{len} of {} bytes", bytes.len());
        }
        std::fs::write(&p, &bytes).expect("rewrite");
        assert!(load_binary(&p).is_ok());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn any_flipped_record_bit_is_caught() {
        let p = tmp("every-bit.vctb");
        let (mut bytes, records) = small(&p);
        for at in records..bytes.len() - 8 {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                std::fs::write(&p, &bytes).expect("rewrite");
                assert!(
                    matches!(
                        load_binary(&p),
                        Err(BinTraceError::ChecksumMismatch | BinTraceError::CorruptRecord { .. })
                    ),
                    "byte {at} bit {bit}"
                );
                bytes[at] ^= 1 << bit;
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace {
            meta: TraceMeta {
                name: "empty".into(),
                seed: 0,
                duration: DurationMs::ZERO,
                description: String::new(),
            },
            requests: vec![],
        };
        let p = tmp("empty.vctb");
        save_binary(&t, &p).expect("save");
        assert_eq!(load_binary(&p).expect("load"), t);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn header_strings_at_the_limit_roundtrip_and_longer_ones_are_refused() {
        let limit = MAX_STRING as usize;
        let mut t = sample();
        t.meta.description = "d".repeat(limit);
        let p = tmp("limit.vctb");
        save_binary(&t, &p).expect("save");
        assert_eq!(load_binary(&p).expect("load"), t);
        std::fs::remove_file(&p).expect("remove");

        for field in ["name", "description"] {
            let mut t = sample();
            let long = "x".repeat(limit + 1);
            match field {
                "name" => t.meta.name = long,
                _ => t.meta.description = long,
            }
            let p = tmp(&format!("too-long-{field}.vctb"));
            std::fs::remove_file(&p).ok();
            let err = save_binary(&t, &p).expect_err("over the limit");
            assert!(
                matches!(err, BinTraceError::StringTooLong { field: f, len } if f == field && len == limit + 1),
                "{err}"
            );
            assert!(!p.exists(), "a refused save leaves no file");
        }
    }

    #[test]
    fn header_strings_roundtrip_unicode() {
        let mut t = sample();
        t.meta.name = "sérvér-ü".into();
        t.meta.description = "描述 with unicode ✓".into();
        let p = tmp("unicode.vctb");
        save_binary(&t, &p).expect("save");
        let back = load_binary(&p).expect("load");
        assert_eq!(back.meta.name, t.meta.name);
        assert_eq!(back.meta.description, t.meta.description);
        std::fs::remove_file(&p).ok();
    }
}
