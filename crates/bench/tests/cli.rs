//! Argument validation of bare `exp` (no subcommand): an unknown option
//! must be a usage error, not a silent start of the full-scale
//! experiment suite.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longer than any rejection or `--list` needs, far shorter than the
/// full-scale suite (minutes).
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `exp` with `args`; returns its exit code and stderr. Kills the
/// child and fails the test if it outlives [`DEADLINE`].
fn exp(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn exp");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll exp") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`exp {}` still running after {DEADLINE:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

#[test]
fn unknown_bare_options_exit_2_and_name_the_argument() {
    for (args, bad) in [
        (&["--help"][..], "--help"),
        (&["-h"][..], "-h"),
        (&["--lsit"][..], "--lsit"),
        (&["--algo", "mis/luby", "--sede", "3"][..], "--sede"),
    ] {
        let (code, stderr) = exp(args);
        assert_eq!(code, Some(2), "`exp {}`: {stderr}", args.join(" "));
        assert!(
            stderr.contains(&format!("unknown option `{bad}`")),
            "`exp {}` must name `{bad}`: {stderr}",
            args.join(" ")
        );
        assert!(stderr.contains("known options:"), "{stderr}");
    }
}

#[test]
fn list_with_a_problem_filter_still_succeeds() {
    let (code, stderr) = exp(&["--list", "--problem", "mis"]);
    assert_eq!(code, Some(0), "{stderr}");
}
