//! The `exp serve` TCP daemon and its line-protocol client.
//!
//! [`run`] binds a `TcpListener`, spawns the worker pool inside one
//! `std::thread::scope`, and then accepts connections until a client
//! sends `{"op": "shutdown"}`. Every connection gets its own handler
//! thread that parses one request per line and streams responses (see
//! [`super::protocol`] for the wire format).
//!
//! A submit handler enqueues one [`Job`] per cell onto the bounded
//! queue — blocking for backpressure when the daemon is saturated —
//! while results flow back over an unbounded mpsc channel. Replies
//! arrive in completion order and are re-sequenced into submission
//! order before writing, so the client reads its cells in the order it
//! sent them, followed by one `done` line.
//!
//! Shutdown: the handling thread acknowledges, raises the shared flag,
//! and self-connects to the listener to wake the accept loop; the
//! accept loop then closes the queue (workers drain what was already
//! accepted and exit) and shuts down every registered connection
//! socket (handlers observe EOF and return), and the scope joins
//! everything before [`run`] returns.
//!
//! Framing: every protocol line, in either direction, leaves in one
//! `write` (`send_line`), and both ends set `TCP_NODELAY`. A line
//! written as its content and then its `'\n'` would let Nagle's
//! algorithm hold the second segment until the peer acknowledges the
//! first, and once a connection leaves its quick-ACK phase the peer
//! delays that ACK by ~40 ms: ~2 × 40 ms per round trip on a reused
//! connection. One write per line keeps the segment count unchanged
//! while `TCP_NODELAY` sends it at once.

use super::pool::{Job, JobReply, Pool};
use super::protocol::{
    self, done_line, error_line, ok_line, parse_request, pong_line, stats_line,
    submit_request_json, Json, Request, ServeStats,
};
use crate::cell::CellKey;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Daemon configuration (the `exp serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Address to bind (default loopback).
    pub host: String,
    /// Port to bind; 0 asks the OS for an ephemeral port (the bound
    /// address is reported through `run`'s `on_ready` callback).
    pub port: u16,
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Cache bound, in completed cells (clamped to ≥ 1).
    pub cache_capacity: usize,
    /// Queue bound, in pending jobs (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// The master seed every served cell derives its randomness from.
    /// Fixed per daemon so the cache key is exactly the cell tuple; a
    /// daemon started with the sweep default (0) serves lines
    /// byte-identical to `exp sweep` defaults.
    pub master_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads: 4,
            cache_capacity: 4096,
            queue_capacity: 1024,
            master_seed: 0,
        }
    }
}

struct Shared {
    pool: Pool,
    shutdown: AtomicBool,
    addr: SocketAddr,
    conns: Mutex<HashMap<usize, TcpStream>>,
    next_conn: AtomicUsize,
}

/// Runs the daemon to completion (until a `shutdown` request).
///
/// `on_ready` is invoked exactly once, with the bound address, after
/// the listener and worker pool are up — tests and the CLI use it to
/// learn the ephemeral port before the first client connects.
///
/// # Errors
///
/// Returns the bind error if the listener cannot be created; per-
/// connection I/O errors are handled by dropping the connection.
pub fn run(cfg: &ServeConfig, on_ready: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
    let addr = listener.local_addr()?;
    let shared = Shared {
        pool: Pool::new(
            cfg.threads,
            cfg.cache_capacity,
            cfg.queue_capacity,
            cfg.master_seed,
        ),
        shutdown: AtomicBool::new(false),
        addr,
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicUsize::new(0),
    };
    std::thread::scope(|s| {
        for _ in 0..shared.pool.threads() {
            s.spawn(|| shared.pool.worker_loop());
        }
        on_ready(addr);
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = &shared;
            s.spawn(move || handle_conn(stream, shared));
        }
        // Stop the pool: drain accepted work, then workers exit…
        shared.pool.queue.close();
        // …and unblock any handler still reading from its client.
        for (_, conn) in shared.conns.lock().expect("conn registry").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    });
    Ok(())
}

/// Writes `line` and its terminating `'\n'` in a single `write_all`,
/// so the line leaves as one segment (see the module docs).
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared
            .conns
            .lock()
            .expect("conn registry")
            .insert(id, clone);
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let keep_going = match parse_request(trimmed) {
            Err(e) => send_line(&mut writer, &error_line(None, &e)).is_ok(),
            Ok(Request::Ping) => send_line(&mut writer, &pong_line()).is_ok(),
            Ok(Request::Stats) => send_line(&mut writer, &stats_line(&shared.pool.stats())).is_ok(),
            Ok(Request::Submit(cells)) => handle_submit(&mut writer, shared, cells),
            Ok(Request::Shutdown) => {
                let _ = send_line(&mut writer, &ok_line());
                shared.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
                false
            }
        };
        if !keep_going {
            break;
        }
    }
    shared.conns.lock().expect("conn registry").remove(&id);
}

/// Enqueues a batch and streams results back in submission order.
/// Returns `false` when the connection should close.
fn handle_submit(writer: &mut TcpStream, shared: &Shared, cells: Vec<CellKey>) -> bool {
    let total = cells.len();
    let (tx, rx) = mpsc::channel::<JobReply>();
    for (index, key) in cells.into_iter().enumerate() {
        let job = Job {
            key,
            index,
            reply: tx.clone(),
        };
        if shared.pool.queue.push(job).is_err() {
            // The daemon is shutting down; answer what we can.
            let _ = tx.send(JobReply {
                index,
                line: Err("server is shutting down".to_string()),
            });
        }
    }
    drop(tx);
    let mut pending: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    let mut next = 0usize;
    let mut errors = 0usize;
    for reply in &rx {
        pending.insert(reply.index, reply.line);
        while let Some(line) = pending.remove(&next) {
            let ok = match line {
                Ok(cell) => send_line(writer, &cell).is_ok(),
                Err(e) => {
                    errors += 1;
                    send_line(writer, &error_line(Some(next), &e)).is_ok()
                }
            };
            if !ok {
                // Client hung up; drain remaining replies and bail so
                // workers never block (the channel is unbounded).
                for _ in rx.iter() {}
                return false;
            }
            next += 1;
        }
    }
    debug_assert_eq!(next, total, "every job must be answered exactly once");
    send_line(writer, &done_line(total, errors)).is_ok()
}

/// Outcome of one [`Client::submit`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// One response line per submitted cell, in submission order: raw
    /// `localavg-sweep/v1` cell objects or `{"error": ...}` objects.
    pub lines: Vec<String>,
    /// Cells the `done` line reported.
    pub cells: usize,
    /// Errors the `done` line reported.
    pub errors: usize,
}

/// A blocking line-protocol client (used by `exp submit` and the serve
/// tests; one TCP connection, any number of requests).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        send_line(&mut self.writer, line)?;
        self.read_line()
    }

    /// Submits a batch and collects the streamed results.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed/foreign terminating line
    /// (e.g. the server rejecting the whole request).
    pub fn submit(&mut self, cells: &[CellKey]) -> std::io::Result<SubmitOutcome> {
        send_line(&mut self.writer, &submit_request_json(cells))?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            let parsed = Json::parse(&line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unparseable response line `{line}`: {e}"),
                )
            })?;
            if parsed.get("done").and_then(Json::as_bool) == Some(true) {
                let cells = parsed
                    .get("cells")
                    .and_then(Json::as_u64)
                    .unwrap_or(lines.len() as u64) as usize;
                let errors = parsed.get("errors").and_then(Json::as_u64).unwrap_or(0) as usize;
                return Ok(SubmitOutcome {
                    lines,
                    cells,
                    errors,
                });
            }
            if parsed.get("error").is_some() && parsed.get("index").is_none() {
                // Whole-request rejection (malformed batch): surface it.
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, line));
            }
            lines.push(line);
        }
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unparseable stats line.
    pub fn stats(&mut self) -> std::io::Result<ServeStats> {
        let line = self.request("{\"op\": \"stats\"}")?;
        protocol::parse_stats(&line).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad stats line `{line}`"),
            )
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a non-pong response.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let line = self.request("{\"op\": \"ping\"}")?;
        if line == pong_line() {
            Ok(())
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad ping response `{line}`"),
            ))
        }
    }

    /// Asks the daemon to stop (acknowledged before it exits).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        let _ = self.request("{\"op\": \"shutdown\"}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_connections_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        assert_eq!(client.writer.nodelay().ok(), Some(true));
        assert_eq!(client.reader.get_ref().nodelay().ok(), Some(true));
    }
}
