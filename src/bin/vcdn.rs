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

use std::path::PathBuf;
use std::process::ExitCode;

use vcdn::cache::{
    baselines::{LfuCache, LruKCache},
    lp_bound_reduced, CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache,
    PsychicConfig, XlruCache,
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

/// Minimal `--flag value` argument map.
struct Args {
    cmd: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing command; try `vcdn help`")?;
        let mut flags = Vec::new();
        let rest: Vec<String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let name = rest[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", rest[i]))?;
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_owned(), value.clone()));
            i += 2;
        }
        Ok(Args { cmd, flags })
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

fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = PathBuf::from(args.required("trace")?);
    if is_binary(&path) {
        load_binary(&path).map_err(|e| e.to_string())
    } else {
        Trace::load_jsonl(&path).map_err(|e| e.to_string())
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let profile = profile_by_name(args.parse_flag("profile", "tiny".to_owned())?.as_str())?;
    let scale: f64 = args.parse_flag("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err("--scale must be finite and > 0".into());
    }
    let days: u64 = args.parse_flag("days", 2)?;
    let seed: u64 = args.parse_flag("seed", 42)?;
    let out = PathBuf::from(args.required("out")?);
    let trace =
        TraceGenerator::new(profile.scaled(scale), seed).generate(DurationMs::from_days(days));
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

fn cmd_replay(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
    let k = chunk_size(args, 2)?;
    let alpha: f64 = args.parse_flag("alpha", 1.0)?;
    let costs = CostModel::from_alpha(alpha).map_err(|e| e.to_string())?;
    let (flag, disk_chunks): (&str, u64) = match (args.get("disk-chunks"), args.get("disk-gb")) {
        (Some(v), _) => (
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
                    let snap = vcdn::types::json::from_str(&json)
                        .map_err(|e| format!("parse snapshot: {e}"))?;
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
                    let snap = vcdn::types::json::from_str(&json)
                        .map_err(|e| format!("parse snapshot: {e}"))?;
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
                "lfu" => Box::new(LfuCache::new(cache_cfg)),
                "lru2" => Box::new(LruKCache::lru2(cache_cfg)),
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

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    match args.cmd.as_str() {
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "replay" => cmd_replay(&args),
        "bound" => cmd_bound(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try `vcdn help`")),
    }
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
