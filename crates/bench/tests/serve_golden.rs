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
//!   Nagle's algorithm waiting on a delayed ACK;
//! * a request nested too deep is an error line, not a stack overflow
//!   that aborts the daemon;
//! * a request line over `MAX_REQUEST_BYTES` is an error line that
//!   closes only its own connection, and a line that is not UTF-8 is an
//!   error line on a connection that stays open;
//! * the client splits a batch whose request would pass that cap into
//!   several lines and returns what one unbounded line would.

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
fn a_batch_over_the_line_cap_is_split_and_answered_whole() {
    // 12 000 copies of one cheap cell render a request of more than
    // `MAX_REQUEST_BYTES`: one execution, the rest cache hits.
    let (handle, addr) = start_server(2022);
    let mut cells = vec![CellKey::new("regular/3", 24, 0, "mis/greedy"); 12_000];
    let mut client = Client::connect(addr).expect("connect");
    let outcome = client.submit(&cells).expect("submit");
    assert_eq!(outcome.lines.len(), 12_000);
    assert_eq!((outcome.cells, outcome.errors), (12_000, 0));
    assert!(outcome.lines.iter().all(|l| *l == outcome.lines[0]));
    // An error in the last request line keeps its batch-global index.
    cells[11_999] = CellKey::new("tree/random", 24, 0, "orientation/rand");
    let outcome = client.submit(&cells).expect("submit");
    assert_eq!((outcome.cells, outcome.errors), (12_000, 1));
    assert!(
        outcome.lines[11_999].starts_with("{\"error\"")
            && outcome.lines[11_999].ends_with("\"index\": 11999}"),
        "got: {}",
        outcome.lines[11_999]
    );
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
fn a_forest_only_algorithm_on_a_cyclic_family_is_an_error_line_not_a_dead_worker() {
    // `mis/tree-rc` runs on forests only and `regular/4` has cycles: the
    // cell must come back as a per-cell error line naming forests, and
    // the same connection must keep answering submits. A worker that
    // panicked on the cell would send no line at all; the read timeout
    // turns that hang into a failure.
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server(2022);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("daemon answers within the timeout");
        line.trim_end().to_string()
    };
    writeln!(
        writer,
        r#"{{"op":"submit","cells":[{{"algorithm":"mis/tree-rc","generator":"regular/4","n":64}}]}}"#
    )
    .expect("send submit");
    let error = read_line();
    assert!(error.starts_with("{\"error\""), "got: {error}");
    assert!(error.contains("\"index\": 0"), "got: {error}");
    assert!(error.contains("forests"), "got: {error}");
    let done = read_line();
    assert!(done.contains("\"done\": true"), "got: {done}");
    assert!(done.contains("\"errors\": 1"), "got: {done}");
    writeln!(
        writer,
        r#"{{"op":"submit","cells":[{{"algorithm":"mis/luby","generator":"regular/4","n":64}}]}}"#
    )
    .expect("send a second submit");
    let line = read_line();
    assert!(
        line.starts_with("{\"algorithm\": \"mis/luby\""),
        "got: {line}"
    );
    let done = read_line();
    assert!(done.contains("\"errors\": 0"), "got: {done}");
    shutdown(handle, addr);
}

#[test]
fn a_deeply_nested_request_is_an_error_line_not_a_dead_daemon() {
    // 100 000 `[`s would overflow the handler thread's stack in a
    // recursive parser without a depth cap, aborting the whole process.
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server(2022);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("daemon answers within the timeout");
        line.trim_end().to_string()
    };
    let deep = format!(r#"{{"op": "submit", "cells": {}"#, "[".repeat(100_000));
    writeln!(writer, "{deep}").expect("send the deep line");
    let error = read_line();
    assert!(error.starts_with("{\"error\""), "got: {error}");
    assert!(error.contains("nesting deeper than"), "got: {error}");
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
fn a_line_that_is_not_utf8_is_an_error_line() {
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server(2022);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(b"{\"op\": \"\xff\"}\n{\"op\": \"ping\"}\n")
        .expect("send two lines");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("an error line");
    assert!(line.contains("not valid UTF-8"), "got: {line}");
    line.clear();
    reader.read_line(&mut line).expect("a pong");
    assert_eq!(line.trim_end(), serve::protocol::pong_line());
    shutdown(handle, addr);
}

#[test]
fn an_over_long_line_closes_only_its_connection() {
    // One byte past the cap and no newline: the daemon must stop reading,
    // answer with one error line and close this connection, while a fresh
    // connection is still served.
    use serve::protocol::MAX_REQUEST_BYTES;
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server(2022);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(&vec![b'a'; MAX_REQUEST_BYTES + 1])
        .expect("send the over-long line");
    let mut reader = BufReader::new(stream);
    let mut error = String::new();
    reader
        .read_line(&mut error)
        .expect("daemon answers within the timeout");
    assert!(error.starts_with("{\"error\""), "got: {error}");
    assert!(error.contains("longer than"), "got: {error}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("a clean close"),
        0,
        "the connection stays open: {rest}"
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
