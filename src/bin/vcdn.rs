//! `vcdn` — command-line front end to the library.
//!
//! ```text
//! vcdn gen    --profile europe --scale 0.01 --days 7 --seed 1 --out t.jsonl
//! vcdn stats  --trace t.jsonl
//! vcdn replay --trace t.jsonl --algo cafe --alpha 2 --disk-gb 16
//! vcdn bound  --trace t.jsonl --alpha 2 --disk-chunks 64 --requests 100
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately keeps its
//! dependency set minimal); every subcommand validates its inputs and
//! exits with a readable error.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

use vcdn::cache::snapshot::CacheConfigSnapshot;
use vcdn::cache::{
    lp_bound_reduced, CacheConfig, CachePolicy, CafeCache, CafeConfig, CafeSnapshot, LruCache,
    PsychicCache, PsychicConfig, RankedCache, XlruCache, XlruSnapshot,
};
use vcdn::sim::report::{bytes, eff, Table};
use vcdn::sim::{ReplayConfig, Replayer};
use vcdn::trace::{
    load_binary, save_binary, stats::trace_stats, ServerProfile, Trace, TraceGenerator,
};
use vcdn::types::{ChunkSize, CostModel, DurationMs};

const USAGE: &str = "\
vcdn — video-CDN cache simulation (EuroSys'14 reproduction)

USAGE:
    vcdn <COMMAND> [OPTIONS]

COMMANDS:
    gen     generate a synthetic trace
              --profile <africa|asia|australia|europe|north-america|
                         south-america|tiny> (default tiny)
              --scale <f>      volume scale factor (default 1.0)
              --days <n>       duration (default 2)
              --seed <n>       workload seed (default 42)
              --out <path>     output file (required); .vctb extension
                               selects the compact binary format
    stats   summarise a trace
              --trace <path>   input file, JSONL or .vctb (required)
              --chunk-mb <n>   chunk size in MiB (default 2)
    replay  replay a trace through a cache
              --trace <path>   input JSONL file (required)
              --algo <lru|lfu|lru2|xlru|cafe|psychic> (default cafe)
              --alpha <f>      fill-to-redirect ratio (default 1.0)
              --disk-chunks <n> | --disk-gb <f>  disk size (required)
              --chunk-mb <n>   chunk size in MiB (default 2)
              --load-state <path> warm-start from a snapshot (cafe/xlru)
              --save-state <path> write the cache's snapshot after replay
    bound   LP-relaxed Optimal efficiency upper bound (limited scale)
              --trace <path>   input JSONL file (required)
              --alpha <f>      (default 1.0)
              --disk-chunks <n> (required)
              --chunk-mb <n>   chunk size in MiB (default 4)
              --requests <n>   truncate the trace (default 120)
    help    print this message
";

/// Minimal `--flag value` argument map: each flag at most once, and only
/// the flags its command takes.
struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(cmd: &str, rest: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags: Vec<(String, String)> = Vec::new();
        for pair in rest.chunks(2) {
            let name = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", pair[0]))?;
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name} for `vcdn {cmd}`"));
            }
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
            None => Ok(default),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn profile_by_name(name: &str) -> Result<ServerProfile, String> {
    Ok(match name {
        "africa" => ServerProfile::africa(),
        "asia" => ServerProfile::asia(),
        "australia" => ServerProfile::australia(),
        "europe" => ServerProfile::europe(),
        "north-america" => ServerProfile::north_america(),
        "south-america" => ServerProfile::south_america(),
        "tiny" => ServerProfile::tiny_test(),
        other => return Err(format!("unknown profile '{other}'")),
    })
}

fn chunk_size(args: &Args, default_mb: u64) -> Result<ChunkSize, String> {
    let mb: u64 = args.parse_flag("chunk-mb", default_mb)?;
    let bytes = mb
        .checked_mul(1024 * 1024)
        .ok_or_else(|| format!("--chunk-mb: {mb} MiB does not fit in a byte count"))?;
    ChunkSize::new(bytes).map_err(|e| e.to_string())
}

/// Whether a path uses the compact binary trace format.
fn is_binary(path: &std::path::Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("vctb")
}

/// Loads `--trace`, refusing one with no requests: every command that
/// reads a trace would otherwise print a table of zeros.
fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = PathBuf::from(args.required("trace")?);
    let trace = if is_binary(&path) {
        load_binary(&path).map_err(|e| e.to_string())?
    } else {
        Trace::load_jsonl(&path).map_err(|e| e.to_string())?
    };
    if trace.is_empty() {
        return Err(format!("{}: the trace holds no requests", path.display()));
    }
    Ok(trace)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let profile = profile_by_name(args.parse_flag("profile", "tiny".to_owned())?.as_str())?;
    let scale: f64 = args.parse_flag("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err("--scale must be finite and > 0".into());
    }
    let days: u64 = args.parse_flag("days", 2)?;
    if days == 0 {
        return Err("--days must be at least 1, got 0".into());
    }
    let duration = (days.checked_mul(DurationMs::DAY.as_millis()))
        .ok_or_else(|| format!("--days {days}: too many days"))?;
    let seed: u64 = args.parse_flag("seed", 42)?;
    let out = PathBuf::from(args.required("out")?);
    let trace = TraceGenerator::new(profile.scaled(scale), seed).generate(DurationMs(duration));
    trace.require_requests()?;
    if is_binary(&out) {
        save_binary(&trace, &out).map_err(|e| e.to_string())?;
    } else {
        trace.save_jsonl(&out).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} requests ({}) to {}",
        trace.len(),
        bytes(trace.total_requested_bytes()),
        out.display()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let k = chunk_size(args, 2)?;
    let s = trace_stats(&trace, k);
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["requests".into(), s.requests.to_string()]);
    t.row(vec!["unique videos".into(), s.unique_videos.to_string()]);
    t.row(vec!["unique chunks".into(), s.unique_chunks.to_string()]);
    t.row(vec!["requested bytes".into(), bytes(s.requested_bytes)]);
    t.row(vec![
        "requested chunk bytes".into(),
        bytes(s.requested_chunk_bytes),
    ]);
    t.row(vec![
        "one-timer tail".into(),
        format!("{:.1}%", s.tail_fraction * 100.0),
    ]);
    t.row(vec!["zipf slope".into(), format!("{:.2}", s.zipf_slope)]);
    t.row(vec!["duration".into(), trace.meta.duration.to_string()]);
    t.row(vec!["source".into(), trace.meta.name.clone()]);
    println!("{}", t.render());
    Ok(())
}

/// A snapshot restores the cache it was saved from, while the replayer is
/// built from the flags: the two must describe the same cache.
fn flags_match_snapshot(saved: &CacheConfigSnapshot, flags: &CacheConfig) -> Result<(), String> {
    let refuse = |field, saved: &dyn Display, flag: &dyn Display| {
        Err(format!(
            "--load-state: snapshot {field} is {saved} but the flags give {flag}"
        ))
    };
    let chunk_bytes = flags.chunk_size.bytes();
    let alpha = flags.costs.alpha();
    if saved.disk_chunks != flags.disk_chunks {
        refuse("disk_chunks", &saved.disk_chunks, &flags.disk_chunks)
    } else if saved.chunk_bytes != chunk_bytes {
        refuse("chunk_bytes", &saved.chunk_bytes, &chunk_bytes)
    } else if saved.alpha.to_bits() != alpha.to_bits() {
        refuse("alpha", &saved.alpha, &alpha)
    } else {
        Ok(())
    }
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let k = chunk_size(args, 2)?;
    let alpha: f64 = args.parse_flag("alpha", 1.0)?;
    let costs = CostModel::from_alpha(alpha).map_err(|e| e.to_string())?;
    let (flag, disk_chunks): (&str, u64) = match (args.get("disk-chunks"), args.get("disk-gb")) {
        (Some(v), None) => (
            "--disk-chunks",
            v.parse()
                .map_err(|_| format!("--disk-chunks: cannot parse '{v}'"))?,
        ),
        (None, Some(v)) => {
            let gb: f64 = v
                .parse()
                .map_err(|_| format!("--disk-gb: cannot parse '{v}'"))?;
            if !(gb.is_finite() && gb > 0.0) {
                return Err("--disk-gb must be finite and > 0".into());
            }
            let chunks = ((gb * (1u64 << 30) as f64) / k.bytes() as f64).round() as u64;
            ("--disk-gb", chunks)
        }
        (None, None) => return Err("--disk-chunks or --disk-gb is required".into()),
        (Some(_), Some(_)) => return Err("--disk-chunks and --disk-gb: give one".into()),
    };
    if disk_chunks == 0 {
        return Err("disk must hold at least one chunk".into());
    }
    let disk_bytes = disk_chunks.checked_mul(k.bytes()).ok_or_else(|| {
        format!(
            "{flag}: {disk_chunks} chunks of {} bytes overflow a 64-bit byte count",
            k.bytes()
        )
    })?;
    let algo = args.parse_flag("algo", "cafe".to_owned())?;
    let cache_cfg = CacheConfig::new(disk_chunks, k, costs);
    let load_state = args.get("load-state").map(PathBuf::from);
    let save_state = args.get("save-state").map(PathBuf::from);
    if (load_state.is_some() || save_state.is_some()) && !matches!(algo.as_str(), "cafe" | "xlru") {
        return Err("--load-state/--save-state support cafe and xlru only".into());
    }
    let replayer = Replayer::new(ReplayConfig::new(k, costs));
    let report = match algo.as_str() {
        "cafe" => {
            let mut cache = match &load_state {
                Some(p) => {
                    let json =
                        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                    let snap: CafeSnapshot = vcdn::types::json::from_str(&json)
                        .map_err(|e| format!("parse snapshot: {e}"))?;
                    flags_match_snapshot(&snap.config, &cache_cfg)?;
                    CafeCache::restore(&snap).map_err(|e| e.to_string())?
                }
                None => CafeCache::new(CafeConfig::new(disk_chunks, k, costs)),
            };
            let report = replayer.replay(&trace, &mut cache);
            if let Some(p) = &save_state {
                let json = vcdn::types::json::to_string(&cache.snapshot());
                std::fs::write(p, json).map_err(|e| format!("{}: {e}", p.display()))?;
            }
            report
        }
        "xlru" => {
            let mut cache = match &load_state {
                Some(p) => {
                    let json =
                        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                    let snap: XlruSnapshot = vcdn::types::json::from_str(&json)
                        .map_err(|e| format!("parse snapshot: {e}"))?;
                    flags_match_snapshot(&snap.config, &cache_cfg)?;
                    // xLRU's recency lists only move forward in time.
                    let newest = snap.disk.last().map(|e| e.1);
                    let newest = newest.max(snap.tracker.last().map(|e| e.1));
                    if let (Some(newest), Some(first)) = (newest, trace.requests.first()) {
                        if first.t < newest {
                            return Err(format!(
                                "--load-state: the trace starts at {} ms, before the \
                                 snapshot's newest stamp at {} ms",
                                first.t.0, newest.0
                            ));
                        }
                    }
                    XlruCache::restore(&snap).map_err(|e| e.to_string())?
                }
                None => XlruCache::new(cache_cfg),
            };
            let report = replayer.replay(&trace, &mut cache);
            if let Some(p) = &save_state {
                let json = vcdn::types::json::to_string(&cache.snapshot());
                std::fs::write(p, json).map_err(|e| format!("{}: {e}", p.display()))?;
            }
            report
        }
        other => {
            let mut policy: Box<dyn CachePolicy> = match other {
                "lru" => Box::new(LruCache::new(cache_cfg)),
                "lfu" => Box::new(RankedCache::lfu(cache_cfg)),
                "lru2" => Box::new(RankedCache::lru2(cache_cfg)),
                "psychic" => Box::new(PsychicCache::new(
                    PsychicConfig::new(disk_chunks, k, costs),
                    &trace.requests,
                )),
                unknown => return Err(format!("unknown algorithm '{unknown}'")),
            };
            replayer.replay(&trace, policy.as_mut())
        }
    };
    let mut t = Table::new(vec!["metric", "overall", "steady state"]);
    t.row(vec![
        "efficiency (Eq. 2)".into(),
        eff(report.overall.efficiency(costs)),
        eff(report.efficiency()),
    ]);
    t.row(vec![
        "ingress-to-egress".into(),
        format!("{:.1}%", report.overall.ingress_pct()),
        format!("{:.1}%", report.ingress_pct()),
    ]);
    t.row(vec![
        "redirected".into(),
        format!("{:.1}%", report.overall.redirect_pct()),
        format!("{:.1}%", report.redirect_pct()),
    ]);
    t.row(vec![
        "requests served/redirected".into(),
        format!(
            "{}/{}",
            report.overall.served_requests, report.overall.redirected_requests
        ),
        format!(
            "{}/{}",
            report.steady.served_requests, report.steady.redirected_requests
        ),
    ]);
    println!(
        "algo={} alpha={alpha} disk={disk_chunks} chunks ({})",
        report.policy,
        bytes(disk_bytes)
    );
    println!("{}", t.render());
    Ok(())
}

fn cmd_bound(args: &Args) -> Result<(), String> {
    let mut trace = load_trace(args)?;
    let k = chunk_size(args, 4)?;
    let alpha: f64 = args.parse_flag("alpha", 1.0)?;
    let costs = CostModel::from_alpha(alpha).map_err(|e| e.to_string())?;
    let disk_chunks: u64 = args
        .required("disk-chunks")?
        .parse()
        .map_err(|_| "--disk-chunks: not a number".to_owned())?;
    if disk_chunks == 0 {
        return Err("disk must hold at least one chunk".into());
    }
    let max_requests: usize = args.parse_flag("requests", 120)?;
    trace.requests.truncate(max_requests);
    let cfg = CacheConfig::new(disk_chunks, k, costs);
    let bound = lp_bound_reduced(&trace.requests, &cfg).map_err(|e| e.to_string())?;
    println!(
        "LP-relaxed Optimal over {} requests (disk {disk_chunks} chunks, alpha {alpha}):",
        trace.len()
    );
    println!(
        "  minimum cost           {:.4} (chunk units)",
        bound.lp_cost
    );
    println!(
        "  efficiency upper bound {:.4}",
        bound.efficiency_upper_bound
    );
    println!(
        "  LP size                {} variables, {} constraints",
        bound.variables, bound.constraints
    );
    Ok(())
}

type Command = fn(&Args) -> Result<(), String>;

/// Every command, the flags it takes, and what runs it.
const COMMANDS: [(&str, &[&str], Command); 4] = [
    ("gen", &["profile", "scale", "days", "seed", "out"], cmd_gen),
    ("stats", &["trace", "chunk-mb"], cmd_stats),
    (
        "replay",
        &[
            "trace",
            "algo",
            "alpha",
            "disk-chunks",
            "disk-gb",
            "chunk-mb",
            "load-state",
            "save-state",
        ],
        cmd_replay,
    ),
    (
        "bound",
        &["trace", "alpha", "disk-chunks", "chunk-mb", "requests"],
        cmd_bound,
    ),
];

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .ok_or("missing command; try `vcdn help`")?;
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        Args::parse(cmd, rest, &[])?;
        print!("{USAGE}");
        return Ok(());
    }
    let (_, known, command) = (COMMANDS.iter())
        .find(|(name, ..)| name == cmd)
        .ok_or_else(|| format!("unknown command '{cmd}'; try `vcdn help`"))?;
    command(&Args::parse(cmd, rest, known)?)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
