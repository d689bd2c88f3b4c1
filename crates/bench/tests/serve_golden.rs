//! End-to-end tests for the `exp serve` subsystem (DESIGN.md §9).
//!
//! Each test starts a real daemon on an ephemeral loopback port and
//! talks to it over TCP with the library client. The central claims:
//!
//! * served result lines are **byte-identical** to the committed
//!   `tests/golden/sweep.json` cell lines for every golden cell;
//! * resubmitting an already-served batch answers entirely from the
//!   content-addressed cache — zero additional algorithm executions,
//!   verified by the daemon's own counters;
//! * two clients submitting overlapping batches concurrently both
//!   receive complete, identical result sets while shared cells
//!   execute only once (single-flight coalescing);
//! * `shutdown` stops the daemon cleanly and `run` returns;
//! * a reused connection answers at loopback speed, not at the pace of
//!   Nagle's algorithm waiting on a delayed ACK.

use localavg_bench::cell::CellKey;
use localavg_bench::serve::{self, Client, ServeConfig};
use localavg_bench::sweep;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// The sweep goldens' pinned spec (see `tests/sweep_golden.rs`).
fn golden_spec() -> sweep::SweepSpec {
    sweep::SweepSpec {
        algorithms: vec![
            "mis/luby".into(),
            "mis/greedy".into(),
            "matching/luby".into(),
            "orientation/rand".into(),
        ],
        generators: vec!["regular/3".into(), "tree/random".into()],
        sizes: vec![24, 48],
        seeds: 2,
        master_seed: 2022,
        params: Vec::new(),
    }
}

fn golden_cells() -> Vec<CellKey> {
    golden_spec()
        .cells()
        .expect("golden spec expands")
        .iter()
        .map(|c| c.key())
        .collect()
}

/// The per-cell lines of the committed `sweep.json` golden file, in
/// expansion order: one line per cell object, indentation and the
/// array-separator commas stripped — exactly the bytes
/// `emit::cell_json` produced when the file was blessed.
fn golden_file_cell_lines() -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep.json");
    let text = std::fs::read_to_string(&path).expect("golden sweep.json is committed");
    let mut lines = Vec::new();
    let mut in_cells = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed == "\"cells\": [" {
            in_cells = true;
            continue;
        }
        if in_cells {
            if trimmed == "]," || trimmed == "]" {
                break;
            }
            lines.push(trimmed.strip_suffix(',').unwrap_or(trimmed).to_string());
        }
    }
    lines
}

/// Starts a daemon on an ephemeral port; the handle resolves when the
/// daemon has fully shut down.
fn start_server(master_seed: u64) -> (JoinHandle<std::io::Result<()>>, SocketAddr) {
    let cfg = ServeConfig {
        threads: 2,
        master_seed,
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        serve::run(&cfg, move |addr| {
            tx.send(addr).expect("report the bound address");
        })
    });
    let addr = rx.recv().expect("daemon came up");
    (handle, addr)
}

fn shutdown(handle: JoinHandle<std::io::Result<()>>, addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("acknowledged");
    handle
        .join()
        .expect("server thread exits")
        .expect("clean shutdown");
}

#[test]
fn served_lines_are_byte_identical_to_the_sweep_golden() {
    let (handle, addr) = start_server(2022);
    let cells = golden_cells();
    let mut client = Client::connect(addr).expect("connect");
    let outcome = client.submit(&cells).expect("submit");
    assert_eq!(outcome.errors, 0, "golden cells must all succeed");
    assert_eq!(outcome.cells, cells.len());

    let golden = golden_file_cell_lines();
    assert_eq!(
        golden.len(),
        cells.len(),
        "golden file cell count matches the spec expansion"
    );
    for (i, (served, expected)) in outcome.lines.iter().zip(&golden).enumerate() {
        assert_eq!(
            served, expected,
            "cell {i} ({}) drifted from the golden bytes",
            cells[i]
        );
    }
    shutdown(handle, addr);
}

#[test]
fn resubmission_is_answered_entirely_from_the_cache() {
    let (handle, addr) = start_server(2022);
    let cells = golden_cells();
    let mut client = Client::connect(addr).expect("connect");

    let first = client.submit(&cells).expect("cold submit");
    let cold = client.stats().expect("stats");
    assert_eq!(cold.executed as usize, cells.len(), "every cell ran once");
    assert_eq!(cold.errors, 0);

    let second = client.submit(&cells).expect("warm submit");
    let warm = client.stats().expect("stats");
    assert_eq!(first.lines, second.lines, "warm bytes identical to cold");
    assert_eq!(
        warm.executed, cold.executed,
        "resubmission must perform zero algorithm executions"
    );
    assert_eq!(
        warm.hits - cold.hits,
        cells.len() as u64,
        "every resubmitted cell is a cache hit"
    );
    shutdown(handle, addr);
}

#[test]
fn concurrent_overlapping_batches_get_identical_complete_results() {
    let (handle, addr) = start_server(2022);
    let cells = golden_cells();
    let mid = cells.len() / 2;
    // Overlapping halves: both clients share the middle third.
    let a: Vec<CellKey> = cells[..mid + cells.len() / 3].to_vec();
    let b: Vec<CellKey> = cells[mid - cells.len() / 3..].to_vec();
    let (res_a, res_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            Client::connect(addr)
                .expect("connect a")
                .submit(&a)
                .expect("submit a")
        });
        let tb = s.spawn(|| {
            Client::connect(addr)
                .expect("connect b")
                .submit(&b)
                .expect("submit b")
        });
        (ta.join().expect("a"), tb.join().expect("b"))
    });
    assert_eq!(res_a.errors, 0);
    assert_eq!(res_b.errors, 0);
    assert_eq!(res_a.lines.len(), a.len(), "client a got a complete set");
    assert_eq!(res_b.lines.len(), b.len(), "client b got a complete set");

    // Shared cells produced identical bytes for both clients, and no
    // distinct cell executed more than once despite the race.
    for (i, key) in a.iter().enumerate() {
        if let Some(j) = b.iter().position(|k| k == key) {
            assert_eq!(res_a.lines[i], res_b.lines[j], "shared cell {key} differs");
        }
    }
    let mut distinct: Vec<&CellKey> = a.iter().chain(&b).collect();
    distinct.sort_by_key(|k| k.canonical());
    distinct.dedup_by_key(|k| k.canonical());
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.executed as usize,
        distinct.len(),
        "concurrent duplicates must coalesce to one execution each"
    );
    shutdown(handle, addr);
}

#[test]
fn protocol_errors_are_reported_per_cell_and_do_not_poison_the_batch() {
    let (handle, addr) = start_server(2022);
    let mut cells = golden_cells();
    cells.truncate(2);
    // A domain violation: sinkless orientation on a tree (leaves).
    cells.insert(1, CellKey::new("tree/random", 24, 0, "orientation/rand"));
    let mut client = Client::connect(addr).expect("connect");
    let outcome = client.submit(&cells).expect("submit");
    assert_eq!(outcome.cells, 3);
    assert_eq!(outcome.errors, 1);
    assert!(
        outcome.lines[1].starts_with("{\"error\""),
        "got: {}",
        outcome.lines[1]
    );
    assert!(outcome.lines[1].contains("\"index\": 1"));
    assert!(outcome.lines[0].starts_with("{\"algorithm\""));
    assert!(outcome.lines[2].starts_with("{\"algorithm\""));
    shutdown(handle, addr);
}

#[test]
fn an_oversized_node_count_is_an_error_line_not_a_dead_daemon() {
    // A path on 10¹² nodes cannot have u32 node ids: the cell must come
    // back as a per-cell error line (not a 16 TB allocation that aborts
    // the process), and the same connection must keep answering.
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server(2022);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon answers");
        line.trim_end().to_string()
    };
    writeln!(
        writer,
        r#"{{"op":"submit","cells":[{{"algorithm":"mis/luby","generator":"path","n":1000000000000}}]}}"#
    )
    .expect("send submit");
    let error = read_line();
    assert!(error.starts_with("{\"error\""), "got: {error}");
    assert!(error.contains("\"index\": 0"), "got: {error}");
    assert!(error.contains("u32"), "got: {error}");
    let done = read_line();
    assert!(done.contains("\"done\": true"), "got: {done}");
    assert!(done.contains("\"errors\": 1"), "got: {done}");
    writeln!(writer, r#"{{"op":"ping"}}"#).expect("send ping");
    assert_eq!(
        read_line(),
        serve::protocol::pong_line(),
        "daemon stopped answering"
    );
    Client::connect(addr)
        .expect("a fresh connection")
        .ping()
        .expect("pong");
    shutdown(handle, addr);
}

#[test]
fn ping_and_stats_work_on_a_fresh_daemon() {
    let (handle, addr) = start_server(7);
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("pong");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.master_seed, 7);
    assert_eq!(stats.served, 0);
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.threads, 2);
    shutdown(handle, addr);
}

#[test]
fn a_reused_connection_is_not_held_back_by_delayed_acks() {
    // A fresh connection is in the kernel's quick-ACK phase, which hides
    // a line split across two writes; only requests on one connection
    // reused past that phase show the ~2 × 40 ms Nagle/delayed-ACK
    // stall. 100 round trips take milliseconds without it, ~9 s with it.
    let (handle, addr) = start_server(2022);
    let cell = golden_cells().swap_remove(0);
    let mut client = Client::connect(addr).expect("connect");
    let warm = client.submit(std::slice::from_ref(&cell)).expect("warm");
    assert_eq!(warm.errors, 0);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        client.ping().expect("pong");
    }
    for _ in 0..50 {
        let cached = client.submit(std::slice::from_ref(&cell)).expect("cached");
        assert_eq!(cached.lines, warm.lines, "a cached answer drifted");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "100 round trips on one connection took {elapsed:?}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, 1, "the 50 resubmissions are cache hits");
    shutdown(handle, addr);
}
