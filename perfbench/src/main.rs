//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints notes, the host fingerprint, one line per metric, and as the
//! last line the result object. `perfbench --daemon ...` is the serve
//! daemon `serve-mixed` starts as a child process.

use perfbench::host::Fingerprint;
use perfbench::report::catalogue;
use perfbench::workloads::{self, Config, Size, Workload};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload mis-regular|matching-powerlaw|sweep-mixed|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_config(args: &[String]) -> Result<Config, String> {
    const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];
    for pair in args.chunks(2) {
        if !FLAGS.contains(&pair[0].as_str()) || pair.len() < 2 {
            return Err(format!("unexpected argument `{}`", pair[0]));
        }
    }
    let need = |name| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        daemon_exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    })
}

/// The `--daemon --master-seed N` mode: a serve daemon with the
/// `serve-mixed` workers and cache on an ephemeral loopback port,
/// announcing `listening <addr>` on standard output.
fn daemon(args: &[String]) -> Result<(), String> {
    let master_seed = flag(args, "--master-seed")
        .ok_or("missing --master-seed")?
        .parse()
        .map_err(|e| format!("--master-seed: {e}"))?;
    let cfg = localavg_bench::serve::ServeConfig {
        threads: workloads::serve::WORKERS,
        cache_capacity: workloads::serve::CACHE,
        master_seed,
        ..localavg_bench::serve::ServeConfig::default()
    };
    localavg_bench::serve::run(&cfg, |addr| {
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "listening {addr}");
        let _ = stdout.flush();
    })
    .map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return match daemon(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse_config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::read(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."));
    let out = workloads::run(&cfg);
    // Built after the run, so that it never shows in the run's figures.
    let working_set = workloads::single::mis_regular_working_set(&cfg).unwrap_or(0);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("host {}", host.json(working_set));
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    for (name, unit) in &catalogue(cfg.trace) {
        if let Some(v) = out.values.get(name) {
            println!("{name:<32} {v:>16.6} {unit}");
        }
    }
    println!("{}", out.result_line(cfg.trace));
    ExitCode::SUCCESS
}
