//! Host fingerprint and process memory readings.
//!
//! Every result carries the fingerprint so that results from different
//! hosts are never compared with each other.

use std::path::Path;
use std::process::{Command, Stdio};

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Size of the last-level cache in bytes (0 when unknown).
    pub llc_bytes: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the measured tree ("unknown" when the
    /// tree is not a git checkout).
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host; `repo` is the measured tree's
    /// root.
    pub fn read(repo: &Path) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            llc_bytes: llc_bytes(),
            rustc: command_line("rustc", &["--version"], repo),
            commit: if repo.join(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"], repo)
            } else {
                "unknown".to_string()
            },
        }
    }

    /// The fingerprint as a JSON object, with `mis-regular`'s working set
    /// (see `workloads::single::mis_regular_working_set`; 0 when unknown)
    /// set against the LLC.
    pub fn json(&self, mis_working_set_bytes: u64) -> String {
        let ratio = if self.llc_bytes > 0 {
            mis_working_set_bytes as f64 / self.llc_bytes as f64
        } else {
            0.0
        };
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"llc_bytes\": {}, \"rustc\": \"{}\", \
             \"commit\": \"{}\", \"mis_regular_working_set_bytes\": {mis_working_set_bytes}, \
             \"mis_regular_working_set_over_llc\": {ratio:.3}}}",
            self.nproc,
            escape(&self.cpu),
            self.llc_bytes,
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The largest cache level's size, from sysfs (`4096K`, `105 MiB`, …).
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let digits: String = size.chars().take_while(char::is_ascii_digit).collect();
        let unit = match size[digits.len()..].trim().chars().next() {
            Some('K') => 1 << 10,
            Some('M') => 1 << 20,
            Some('G') => 1 << 30,
            _ => 1,
        };
        let bytes = digits.parse::<u64>().unwrap_or(0) * unit;
        if (level, bytes) > best {
            best = (level, bytes);
        }
    }
    best.1
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process, in bytes.
pub fn self_peak_rss() -> u64 {
    status_bytes("self", "VmHWM:").unwrap_or(0)
}
