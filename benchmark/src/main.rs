//! Command line of the benchmark.
//!
//! ```text
//! vcdn-benchmark run --workload <name> [--seed <u64>] [--seconds <n>]
//!                    [--trace <0|1>] [--quick] [--record]
//! vcdn-benchmark compare <base.jsonl> <new.jsonl>...
//! ```
//!
//! `run` prints every metric it measured by name with its unit, then — as
//! the last line of standard output — the JSON object the benchmark
//! contract asks for. It exits 0 when the run is correct, 1 when a check
//! failed, 2 when it could not run at all. `compare` exits 1 when a
//! metric regressed or a simulated statistic moved.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vcdn_benchmark::compare::{compare, load_records};
use vcdn_benchmark::machine::recorded_context;
use vcdn_benchmark::run::{run, RunOptions, Window};
use vcdn_benchmark::schema::Manifest;
use vcdn_benchmark::workload::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  vcdn-benchmark run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--quick] [--record]
  vcdn-benchmark compare <base.jsonl> <new.jsonl>...

run
  --workload  xlru_large | cafe_large | cafe_paper | psychic_paper
  --seed      workload seed (default 20140413)
  --seconds   length of the measurement window (default: run_seconds of BENCHMARK.json)
  --trace     0: end-to-end metrics only; 1: also the probes, the traced passes and the
              per-layer metrics (default 1)
  --quick     smoke test: scale 0.004, 4 days, 3 rounds; no meaningful timing
  --record    append the result, with rustc and commit, to results/trajectory.jsonl";

/// The benchmark's own directory, where `out/` and `results/` live.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Writes to standard output; a closed pipe is an error, not a panic.
fn print(text: &str) -> Result<(), String> {
    std::io::stdout()
        .write_all(text.as_bytes())
        .map_err(|e| format!("standard output: {e}"))
}

fn parse_run(args: &[String], manifest: &Manifest) -> Result<(RunOptions, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = manifest.run_seconds as f64;
    let mut traced = true;
    let mut quick = false;
    let mut record = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            "--record" => record = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let options = RunOptions {
        workload: if quick { workload.quick() } else { workload },
        seed,
        window: if quick {
            Window::Rounds(3)
        } else {
            Window::Seconds(seconds)
        },
        traced,
        out_dir: home().join("out"),
    };
    Ok((options, record))
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let manifest = Manifest::load()?;
    let (options, record) = parse_run(args, &manifest)?;
    let result = run(&options)?;
    if record {
        let path = home().join("results").join("trajectory.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", result.to_json(recorded_context()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print(&format!("{}{}\n", result.render(), result.contract_line()))?;
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    if args.len() < 2 {
        return Err(USAGE.to_string());
    }
    let (base_path, new_paths) = (&args[0], &args[1..]);
    let manifest = Manifest::load()?;
    let base = load_records(&PathBuf::from(base_path))?;
    let mut passed = true;
    let mut report = String::new();
    for new_path in new_paths {
        let new = load_records(&PathBuf::from(new_path))?;
        let comparison = compare(&base, &new, &manifest);
        report.push_str(&format!(
            "base = {base_path} ({} runs), new = {new_path} ({} runs)\n{comparison}",
            base.len(),
            new.len()
        ));
        passed &= comparison.passed();
    }
    print(&report)?;
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "compare" => compare_command(rest),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("vcdn-benchmark: {message}");
        ExitCode::from(2)
    })
}
