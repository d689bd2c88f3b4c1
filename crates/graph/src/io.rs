//! On-disk storage for [`Graph`] — the `localavg-csr/v1` container
//! (DESIGN.md §10).
//!
//! Large instances (10⁷⁺ nodes) take minutes to generate but milliseconds
//! per query cell; persisting the frozen CSR lets `exp gen` build once and
//! every later `exp sweep --graph-file` / `exp bench-engine --graph-file`
//! reload in a single streaming pass. The format *is* the in-memory
//! layout of [`Graph`]: the offsets, arcs, edges and edge-ports sections
//! are its four frozen arrays verbatim (the `(u32, u32)` pairs are read
//! straight into place, only range-checked), and the reverse-port
//! section is derived from the in-memory reverse-arc table by the
//! writer and turned back into it inside the reader's port-table audit.
//! A written-then-read graph is therefore **byte-identical** in memory
//! (`Graph: Eq` holds across the round trip, port order included), and
//! a resident graph's [`Graph::memory_bytes`] is exactly its file size
//! minus the 40 bytes of magic, header and footer.
//!
//! # Layout (all integers little-endian)
//!
//! | section | bytes | contents |
//! |---|---|---|
//! | magic | 8 | `b"LAVGCSR1"` |
//! | header | 24 | `version: u32` (= 1), `reserved: u32` (= 0), `n: u64`, `m: u64` |
//! | offsets | 8·(n+1) | CSR offsets as `u64` |
//! | arcs | 8·2m | per arc: `neighbor: u32`, `edge id: u32` |
//! | edges | 8·m | per edge: `u: u32`, `v: u32` with `u < v` |
//! | edge ports | 8·m | per edge: `port at u: u32`, `port at v: u32` |
//! | rev ports | 4·2m | per arc: the edge's port at the other endpoint, `u32` |
//! | checksum | 8 | 64-bit block hash of every preceding byte |
//!
//! Node and edge ids are `u32` in memory too: a [`Graph`] holds at most
//! [`MAX_NODES`] nodes and `m < u32::MAX / 2` edges, both checked at
//! build time; CSR offsets range up to `2m` and are stored as `u64`
//! (word-sized in memory). Every section length is a multiple of 8
//! bytes, so the checksum is defined over aligned 8-byte blocks:
//! `h ← (rotl(h, 5) ^ block) · 0x517cc1b727220a95` from seed
//! `0x6c61766763737231` (`"lavgcsr1"`).
//!
//! # Reading is validating
//!
//! [`read_graph`] never trusts the header: tables are read with sized
//! [`Read::read_exact`] calls into chunk-grown buffers (a lying `n`
//! fails fast with [`ReadError::Truncated`] instead of attempting a
//! giant allocation), the checksum must match, and a full structural
//! audit re-checks every invariant the accessors rely on — offsets
//! monotone and consistent with `2m`, arc/edge agreement, port-table
//! agreement, reverse-port involution, and simple-graph-ness (no
//! duplicate neighbors). Everything is std-only safe code: no mmap, no
//! `unsafe`, honoring the workspace `forbid(unsafe_code)` discipline.

use crate::graph::{Graph, MAX_NODES};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// First 8 bytes of every `localavg-csr/v1` file.
pub const MAGIC: [u8; 8] = *b"LAVGCSR1";

/// Format version written and accepted by this module.
pub const VERSION: u32 = 1;

/// Checksum seed (`"lavgcsr1"` as a little-endian u64).
const HASH_SEED: u64 = 0x6c61_7667_6373_7231;

/// Staging-buffer size for both directions; a multiple of 8 so chunk
/// boundaries never split a checksum block.
const CHUNK_BYTES: usize = 1 << 20;

/// Errors from [`read_graph`]. Every rejection is typed so callers (and
/// the fuzz harness's corrupted-header leg) can assert on the *reason* a
/// file was refused, not just that it was.
#[derive(Debug)]
pub enum ReadError {
    /// An underlying I/O failure other than a short read.
    Io(io::Error),
    /// The first 8 bytes were not [`MAGIC`].
    BadMagic([u8; 8]),
    /// The version field was not [`VERSION`].
    UnsupportedVersion(u32),
    /// A header count exceeds what the format (or this platform) can
    /// represent — e.g. byte-swapped big-endian values masquerading as
    /// astronomically large `n`/`m`.
    HeaderOutOfRange {
        /// Which header field was out of range.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// The file ended before the named section was complete.
    Truncated {
        /// The section being read when the stream ran dry.
        section: &'static str,
    },
    /// The stored checksum does not match the bytes read.
    ChecksumMismatch {
        /// Checksum recomputed from the bytes read.
        computed: u64,
        /// Checksum stored in the file footer.
        stored: u64,
    },
    /// Bytes remain after the checksum footer.
    TrailingBytes,
    /// The tables decoded but violate a structural invariant of
    /// [`Graph`] (offsets, arc/edge agreement, port tables, simpleness).
    Corrupt(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not a localavg-csr file)"),
            ReadError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported localavg-csr version {v} (expected {VERSION})"
                )
            }
            ReadError::HeaderOutOfRange { field, value } => {
                write!(f, "header field `{field}` out of range: {value}")
            }
            ReadError::Truncated { section } => {
                write!(f, "file truncated in the {section} section")
            }
            ReadError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            ReadError::TrailingBytes => write!(f, "trailing bytes after the checksum footer"),
            ReadError::Corrupt(msg) => write!(f, "corrupt graph tables: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Advances the checksum over `bytes`, which must be 8-byte aligned in
/// length (every section of the format is).
fn hash_blocks(mut h: u64, bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len().is_multiple_of(8));
    for b in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// Exact encoded size in bytes of a graph with `n` nodes and `m` edges —
/// what [`write_graph`] returns, usable for capacity planning before
/// generating anything.
pub fn encoded_size_bytes(n: usize, m: usize) -> u64 {
    48 + 8 * n as u64 + 40 * m as u64
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct HashWriter<W: Write> {
    inner: W,
    hash: u64,
    written: u64,
    stage: Vec<u8>,
}

impl<W: Write> HashWriter<W> {
    fn new(inner: W) -> Self {
        HashWriter {
            inner,
            hash: HASH_SEED,
            written: 0,
            stage: Vec::with_capacity(CHUNK_BYTES),
        }
    }

    /// Writes `bytes` through the checksum. Only called with 8-byte-
    /// aligned lengths (magic, header, flushed stages).
    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash = hash_blocks(self.hash, bytes);
        self.inner.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn flush_stage(&mut self) -> io::Result<()> {
        if !self.stage.is_empty() {
            let stage = std::mem::take(&mut self.stage);
            self.emit(&stage)?;
            self.stage = stage;
            self.stage.clear();
        }
        Ok(())
    }

    /// Stages one little-endian value; flushes at the chunk boundary.
    /// `CHUNK_BYTES` is a multiple of 8 and values are 4 or 8 bytes, so
    /// the boundary is always hit exactly and flushed chunks stay
    /// 8-byte aligned (section element counts keep the tail aligned).
    fn stage_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stage.extend_from_slice(bytes);
        if self.stage.len() >= CHUNK_BYTES {
            self.flush_stage()?;
        }
        Ok(())
    }
}

/// Serializes `g` in `localavg-csr/v1` form; returns the bytes written.
///
/// Streaming: the tables are staged through a fixed ~1 MiB buffer, so
/// writing never clones a table. Wrap `w` in nothing — the writer does
/// its own batching.
///
/// # Errors
///
/// Propagates I/O errors from `w`. Every [`Graph`] fits the format: its
/// ids are already the file's `u32`s.
pub fn write_graph<W: Write>(w: W, g: &Graph) -> io::Result<u64> {
    write_graph_inner(w, g).map(|(written, _)| written)
}

/// [`write_graph`] plus the checksum it stored in the footer.
fn write_graph_inner<W: Write>(w: W, g: &Graph) -> io::Result<(u64, u64)> {
    let (offsets, nbrs, edges, edge_ports) = g.raw_parts();
    let mut hw = HashWriter::new(w);
    hw.emit(&MAGIC)?;
    let mut header = [0u8; 24];
    header[0..4].copy_from_slice(&VERSION.to_le_bytes());
    // bytes 4..8 stay zero (reserved)
    header[8..16].copy_from_slice(&(g.n() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&(g.m() as u64).to_le_bytes());
    hw.emit(&header)?;
    for &x in offsets {
        hw.stage_bytes(&(x as u64).to_le_bytes())?;
    }
    // The arcs, edges and edge-ports sections are the in-memory pairs;
    // `a` in the low half makes the u64's little-endian bytes `a, b`.
    for section in [nbrs, edges, edge_ports] {
        for &(a, b) in section {
            hw.stage_bytes(&(u64::from(b) << 32 | u64::from(a)).to_le_bytes())?;
        }
    }
    // The in-memory table holds reverse *arcs*; the format keeps the
    // reverse *ports* it has always stored.
    for arc in 0..nbrs.len() {
        hw.stage_bytes(&(g.rev_port(arc) as u32).to_le_bytes())?;
    }
    hw.flush_stage()?;
    // Footer: the checksum itself is not hashed.
    let digest = hw.hash;
    hw.inner.write_all(&digest.to_le_bytes())?;
    hw.inner.flush()?;
    Ok((hw.written + 8, digest))
}

/// The 64-bit content hash of `g`: exactly the checksum [`write_graph`]
/// stores in the footer, computed without touching a disk. Two graphs
/// share a hash iff their frozen CSR tables are identical, so this is
/// the canonical identity of a file-backed instance — cell keys built
/// from a `--graph-file` use `file/<hash>` as their family component,
/// keeping goldens and the serve cache content-addressed.
pub fn content_hash(g: &Graph) -> u64 {
    let (_, digest) = write_graph_inner(io::sink(), g).expect("writing to io::sink cannot fail");
    digest
}

/// [`write_graph`] to a freshly created file at `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_graph_to_path<P: AsRef<Path>>(path: P, g: &Graph) -> io::Result<u64> {
    write_graph(File::create(path)?, g)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct HashReader<R: Read> {
    inner: R,
    hash: u64,
    buf: Vec<u8>,
}

impl<R: Read> HashReader<R> {
    fn new(inner: R) -> Self {
        HashReader {
            inner,
            hash: HASH_SEED,
            buf: Vec::new(),
        }
    }

    /// Fills `self.buf` with exactly `len` bytes (8-byte-aligned) and
    /// folds them into the checksum.
    fn fill(&mut self, len: usize, section: &'static str) -> Result<(), ReadError> {
        self.buf.resize(len, 0);
        self.inner.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ReadError::Truncated { section }
            } else {
                ReadError::Io(e)
            }
        })?;
        self.hash = hash_blocks(self.hash, &self.buf);
        Ok(())
    }

    /// Reads `count` little-endian values of `W` bytes each, decoded by
    /// `decode`, in bounded chunks — a corrupt header asking for 2⁶⁰
    /// values fails with [`ReadError::Truncated`] after one chunk
    /// instead of attempting the allocation up front. `count · W` is a
    /// multiple of 8 for every section of the format.
    fn read_array<T, const W: usize>(
        &mut self,
        count: usize,
        section: &'static str,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, ReadError> {
        let mut out: Vec<T> = Vec::new();
        let mut remaining = count;
        while remaining > 0 {
            let take = remaining.min(CHUNK_BYTES / W);
            self.fill(take * W, section)?;
            out.reserve(take);
            out.extend(
                self.buf
                    .chunks_exact(W)
                    .map(|b| decode(b.try_into().expect("W-byte chunk"))),
            );
            remaining -= take;
        }
        Ok(out)
    }
}

/// Decodes one `(u32, u32)` pair of the arcs, edges or edge-ports
/// section — the writer's little-endian u64 with the first value in its
/// low half.
fn u32_pair(b: [u8; 8]) -> (u32, u32) {
    let w = u64::from_le_bytes(b);
    (w as u32, (w >> 32) as u32)
}

fn corrupt(msg: impl Into<String>) -> ReadError {
    ReadError::Corrupt(msg.into())
}

/// Deserializes and fully validates a `localavg-csr/v1` graph from `r`.
///
/// On success the returned graph is byte-identical (field for field) to
/// the one that was written. See the [module docs](self) for everything
/// that is checked on the way in.
///
/// # Errors
///
/// Any [`ReadError`]; the stream is positioned unpredictably afterwards.
pub fn read_graph<R: Read>(r: R) -> Result<Graph, ReadError> {
    read_graph_with_hash(r).map(|(g, _)| g)
}

/// [`read_graph`] plus the file's verified checksum — the same value
/// [`content_hash`] computes from the in-memory graph, so callers that
/// need the instance's content identity (cell keys for `--graph-file`
/// runs) get it for free instead of re-hashing 40 bytes per edge.
///
/// # Errors
///
/// Any [`ReadError`]; the stream is positioned unpredictably afterwards.
pub fn read_graph_with_hash<R: Read>(r: R) -> Result<(Graph, u64), ReadError> {
    let mut hr = HashReader::new(r);
    hr.fill(8, "magic")?;
    if hr.buf[..8] != MAGIC {
        return Err(ReadError::BadMagic(
            hr.buf[..8].try_into().expect("8-byte magic"),
        ));
    }
    hr.fill(24, "header")?;
    let version = u32::from_le_bytes(hr.buf[0..4].try_into().expect("version"));
    if version != VERSION {
        return Err(ReadError::UnsupportedVersion(version));
    }
    let n64 = u64::from_le_bytes(hr.buf[8..16].try_into().expect("n"));
    let m64 = u64::from_le_bytes(hr.buf[16..24].try_into().expect("m"));
    if n64 > MAX_NODES as u64 {
        return Err(ReadError::HeaderOutOfRange {
            field: "n",
            value: n64,
        });
    }
    if m64 >= u32::MAX as u64 / 2 {
        return Err(ReadError::HeaderOutOfRange {
            field: "m",
            value: m64,
        });
    }
    let n = n64 as usize;
    let m = m64 as usize;

    let offsets64 = hr.read_array(n + 1, "offsets", u64::from_le_bytes)?;
    let nbrs = hr.read_array(2 * m, "arcs", u32_pair)?;
    let edges = hr.read_array(m, "edges", u32_pair)?;
    let edge_ports = hr.read_array(m, "edge ports", u32_pair)?;
    // Read as reverse ports; converted in place into the reverse-arc
    // table by the port-table audit below.
    let mut rev_arcs = hr.read_array(2 * m, "rev ports", u32::from_le_bytes)?;
    let computed = hr.hash;
    // The footer is outside the checksum.
    let mut footer = [0u8; 8];
    hr.inner.read_exact(&mut footer).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ReadError::Truncated {
                section: "checksum footer",
            }
        } else {
            ReadError::Io(e)
        }
    })?;
    let stored = u64::from_le_bytes(footer);
    if computed != stored {
        return Err(ReadError::ChecksumMismatch { computed, stored });
    }
    match hr.inner.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Ok(_) => return Err(ReadError::TrailingBytes),
        Err(e) => return Err(ReadError::Io(e)),
    }

    // --- Structural audit ------------------------------------------------
    if offsets64[0] != 0 {
        return Err(corrupt("offsets[0] != 0"));
    }
    if offsets64.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("offsets not nondecreasing"));
    }
    if offsets64[n] != 2 * m64 {
        return Err(corrupt(format!(
            "offsets[n] = {} but 2m = {}",
            offsets64[n],
            2 * m64
        )));
    }
    let offsets: Vec<usize> = offsets64.into_iter().map(|x| x as usize).collect();
    // Range checks on the pairs in place; `n <= MAX_NODES` and
    // `m < u32::MAX / 2`, so the bounds below are exact in u32.
    let (n32, m32) = (n as u32, m as u32);
    if let Some((nb, e)) = nbrs.iter().find(|&&(nb, e)| nb >= n32 || e >= m32) {
        return Err(corrupt(format!("arc ({nb}, {e}) out of range")));
    }
    if let Some((u, v)) = edges.iter().find(|&&(u, v)| u >= v || v >= n32) {
        return Err(corrupt(format!("edge ({u}, {v}) not normalized in-range")));
    }

    // Arc ↔ edge agreement: every arc names an edge it belongs to.
    for v in 0..n {
        let v32 = v as u32;
        for &(u, e) in &nbrs[offsets[v]..offsets[v + 1]] {
            let expect = (v32.min(u), v32.max(u));
            let found = edges[e as usize];
            if found != expect {
                return Err(corrupt(format!(
                    "arc at node {v} names edge {e} = {found:?}, expected {expect:?}"
                )));
            }
        }
    }
    // Port tables: each edge's two ports point back at it, and each
    // arc's reverse port is the edge's port at the other endpoint. The
    // two arcs `au`, `av` are distinct for distinct edges (the arc check
    // pins their contents to `e`), so this loop visits every one of the
    // 2m arcs exactly once and can rewrite its reverse port into the
    // reverse arc in place.
    for (e, &(u, v)) in edges.iter().enumerate() {
        let (pu, pv) = edge_ports[e];
        let (u_at, v_at) = (u as usize, v as usize);
        let (au, av) = (offsets[u_at] + pu as usize, offsets[v_at] + pv as usize);
        if au >= offsets[u_at + 1] || av >= offsets[v_at + 1] {
            return Err(corrupt(format!("edge {e} port out of degree range")));
        }
        if nbrs[au] != (v, e as u32) || nbrs[av] != (u, e as u32) {
            return Err(corrupt(format!("edge {e} ports disagree with arcs")));
        }
        if rev_arcs[au] != edge_ports[e].1 || rev_arcs[av] != edge_ports[e].0 {
            return Err(corrupt(format!("edge {e} reverse ports inconsistent")));
        }
        rev_arcs[au] = av as u32;
        rev_arcs[av] = au as u32;
    }
    // Simple-graph audit: no node lists the same neighbor twice.
    let mut scratch: Vec<u32> = Vec::new();
    for v in 0..n {
        scratch.clear();
        scratch.extend(nbrs[offsets[v]..offsets[v + 1]].iter().map(|&(u, _)| u));
        scratch.sort_unstable();
        if scratch.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(format!("node {v} has a duplicate neighbor")));
        }
    }

    Ok((
        Graph::from_raw_parts(offsets, nbrs, edges, edge_ports, rev_arcs),
        stored,
    ))
}

/// [`read_graph`] from the file at `path`.
///
/// # Errors
///
/// Any [`ReadError`] (file-open failures surface as [`ReadError::Io`]).
pub fn read_graph_from_path<P: AsRef<Path>>(path: P) -> Result<Graph, ReadError> {
    read_graph(File::open(path).map_err(ReadError::Io)?)
}

/// [`read_graph_with_hash`] from the file at `path`.
///
/// # Errors
///
/// Any [`ReadError`] (file-open failures surface as [`ReadError::Io`]).
pub fn read_graph_from_path_with_hash<P: AsRef<Path>>(path: P) -> Result<(Graph, u64), ReadError> {
    read_graph_with_hash(File::open(path).map_err(ReadError::Io)?)
}

// ---------------------------------------------------------------------------
// Plain-text edge-list import (SNAP-style)
// ---------------------------------------------------------------------------

/// A graph imported from a plain-text edge list, with the normalization
/// statistics `exp import` reports.
#[derive(Debug)]
pub struct ImportedGraph {
    /// The built simple undirected graph (dense 0-based node ids).
    pub graph: Graph,
    /// Distinct raw node ids seen (= `graph.n()`).
    pub nodes: usize,
    /// Edges kept after normalization (= `graph.m()`).
    pub edges: usize,
    /// Self-loop lines dropped.
    pub self_loops: usize,
    /// Duplicate edge lines dropped (both orientations of an undirected
    /// edge count as duplicates of each other).
    pub duplicates: usize,
    /// Comment / blank lines skipped.
    pub comments: usize,
}

/// Why a text edge list failed to import.
#[derive(Debug)]
pub enum ImportError {
    /// The reader failed.
    Io(io::Error),
    /// A data line failed to parse (1-based line number and explanation).
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The normalized edge stream was rejected by the builder (cannot
    /// happen for in-range remapped ids; kept for honesty).
    Graph(crate::GraphError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "read failed: {e}"),
            ImportError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ImportError::Graph(e) => write!(f, "graph build rejected the edge list: {e:?}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Imports a whitespace-separated edge-list text (the SNAP download
/// format): one `u v` pair of non-negative integer node ids per line,
/// `#`- or `%`-prefixed comment lines and blank lines skipped.
///
/// Normalization, in order:
///
/// 1. raw ids are remapped to dense 0-based ids by **sorted numeric
///    order** (deterministic and independent of edge order);
/// 2. self-loops are dropped;
/// 3. duplicate edges are dropped — SNAP files commonly list both
///    orientations of each undirected edge, so `a b` and `b a` collapse
///    to one edge;
/// 4. the surviving edges are streamed through
///    [`GraphBuilder::stream_edges`](crate::GraphBuilder::stream_edges)
///    in normalized sorted order, which fixes the edge-id numbering.
///
/// The result is byte-stable: the same input text always produces the
/// same [`content_hash`].
///
/// # Errors
///
/// [`ImportError::Io`] on read failures, [`ImportError::Parse`] (with a
/// 1-based line number) for lines that are not two integer tokens.
pub fn import_edge_list<R: io::BufRead>(r: R) -> Result<ImportedGraph, ImportError> {
    let mut raw_edges: Vec<(u64, u64)> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut self_loops = 0usize;
    let mut comments = 0usize;
    for (idx, line) in r.lines().enumerate() {
        let line = line.map_err(ImportError::Io)?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') || text.starts_with('%') {
            comments += 1;
            continue;
        }
        let mut tokens = text.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64, ImportError> {
            let tok = tok.ok_or(ImportError::Parse {
                line: idx + 1,
                message: "expected two node ids, found one".to_string(),
            })?;
            tok.parse::<u64>().map_err(|_| ImportError::Parse {
                line: idx + 1,
                message: format!("`{tok}` is not a non-negative integer node id"),
            })
        };
        let u = parse(tokens.next())?;
        let v = parse(tokens.next())?;
        if let Some(extra) = tokens.next() {
            return Err(ImportError::Parse {
                line: idx + 1,
                message: format!("trailing token `{extra}` after the two node ids"),
            });
        }
        ids.push(u);
        ids.push(v);
        if u == v {
            self_loops += 1;
        } else {
            raw_edges.push((u, v));
        }
    }
    // Dense remap by sorted raw id (a node mentioned only by self-loops
    // survives as an isolated node).
    ids.sort_unstable();
    ids.dedup();
    let dense = |raw: u64| ids.binary_search(&raw).expect("id collected above");
    let mut edges: Vec<(usize, usize)> = raw_edges
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (dense(u), dense(v));
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    let duplicates = before - edges.len();
    let graph = crate::GraphBuilder::stream_edges(ids.len(), |sink| {
        for &(u, v) in &edges {
            sink.edge(u, v);
        }
    })
    .map_err(ImportError::Graph)?;
    Ok(ImportedGraph {
        nodes: graph.n(),
        edges: graph.m(),
        graph,
        self_loops,
        duplicates,
        comments,
    })
}

/// [`import_edge_list`] from a file path.
///
/// # Errors
///
/// Same conditions as [`import_edge_list`]; open failures surface as
/// [`ImportError::Io`].
pub fn import_edge_list_from_path<P: AsRef<Path>>(path: P) -> Result<ImportedGraph, ImportError> {
    import_edge_list(io::BufReader::new(
        File::open(path).map_err(ImportError::Io)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;

    fn roundtrip_bytes(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        let written = write_graph(&mut buf, g).unwrap();
        assert_eq!(written, buf.len() as u64);
        assert_eq!(written, encoded_size_bytes(g.n(), g.m()));
        buf
    }

    /// Re-stamps the footer after a test mutates the body, so structural
    /// validation (not the checksum) is what rejects the file.
    fn fix_checksum(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let h = hash_blocks(HASH_SEED, &bytes[..body]);
        bytes[body..].copy_from_slice(&h.to_le_bytes());
    }

    #[test]
    fn roundtrip_small_graphs() {
        let mut rng = Rng::seed_from(7);
        let graphs = [
            Graph::empty(0),
            Graph::empty(5),
            gen::path(1),
            gen::path(17),
            gen::petersen(),
            gen::gnp(50, 0.2, &mut rng),
            gen::random_regular(24, 3, &mut rng).unwrap(),
        ];
        for g in &graphs {
            let bytes = roundtrip_bytes(g);
            let h = read_graph(&bytes[..]).unwrap();
            assert_eq!(&h, g);
            // Port order survives (Eq covers it, but make it explicit).
            for v in h.nodes() {
                assert!(h.neighbors(v).eq(g.neighbors(v)));
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = roundtrip_bytes(&gen::path(4));
        bytes[0] = b'X';
        assert!(matches!(
            read_graph(&bytes[..]),
            Err(ReadError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut bytes = roundtrip_bytes(&gen::path(4));
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_graph(&bytes[..]),
            Err(ReadError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn rejects_big_endian_header_counts() {
        // A writer that stored n big-endian would claim an absurd count.
        let mut bytes = roundtrip_bytes(&gen::path(300));
        let n = 300u64.to_be_bytes();
        bytes[16..24].copy_from_slice(&n);
        match read_graph(&bytes[..]) {
            Err(ReadError::HeaderOutOfRange { field: "n", value }) => {
                assert_eq!(value, u64::from_le_bytes(n));
            }
            other => panic!("expected HeaderOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_in_every_section() {
        let bytes = roundtrip_bytes(&gen::petersen());
        // Chop the file at a few section-interior points and at every
        // boundary; each must fail with Truncated, never panic.
        for cut in [0, 4, 8, 20, 32, 40, 32 + 11 * 8, bytes.len() - 9] {
            let r = read_graph(&bytes[..cut]);
            assert!(
                matches!(r, Err(ReadError::Truncated { .. })),
                "cut at {cut}: {r:?}"
            );
        }
        // Cutting just the footer names it specifically.
        match read_graph(&bytes[..bytes.len() - 8]) {
            Err(ReadError::Truncated { section }) => {
                assert_eq!(section, "checksum footer");
            }
            other => panic!("expected truncated footer, got {other:?}"),
        }
    }

    #[test]
    fn rejects_flipped_bit_via_checksum() {
        let mut bytes = roundtrip_bytes(&gen::petersen());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            read_graph(&bytes[..]),
            Err(ReadError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = roundtrip_bytes(&gen::path(4));
        bytes.push(0);
        assert!(matches!(
            read_graph(&bytes[..]),
            Err(ReadError::TrailingBytes)
        ));
    }

    #[test]
    fn rejects_structurally_corrupt_tables() {
        // Arc pointing at an out-of-range neighbor (checksum re-stamped
        // so structural validation is the rejecting layer).
        let g = gen::path(4); // offsets: 5 u64s at byte 32; arcs follow.
        let arcs_at = 32 + 5 * 8;
        let mut bytes = roundtrip_bytes(&g);
        bytes[arcs_at..arcs_at + 4].copy_from_slice(&999u32.to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(read_graph(&bytes[..]), Err(ReadError::Corrupt(_))));

        // Offsets that do not sum to 2m.
        let mut bytes = roundtrip_bytes(&g);
        bytes[32 + 4 * 8..32 + 5 * 8].copy_from_slice(&77u64.to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(read_graph(&bytes[..]), Err(ReadError::Corrupt(_))));

        // Denormalized edge endpoints (v <= u).
        let edges_at = arcs_at + 6 * 8;
        let mut bytes = roundtrip_bytes(&g);
        bytes[edges_at..edges_at + 4].copy_from_slice(&3u32.to_le_bytes());
        fix_checksum(&mut bytes);
        assert!(matches!(read_graph(&bytes[..]), Err(ReadError::Corrupt(_))));

        // A reverse port naming the wrong port at the other endpoint
        // (arc 0 is node 0 → node 1, whose port for edge 0 is 0, not 1).
        let rev_at = edges_at + 2 * 3 * 8;
        let mut bytes = roundtrip_bytes(&g);
        assert_eq!(bytes[rev_at..rev_at + 4], 0u32.to_le_bytes());
        bytes[rev_at..rev_at + 4].copy_from_slice(&1u32.to_le_bytes());
        fix_checksum(&mut bytes);
        match read_graph(&bytes[..]) {
            Err(ReadError::Corrupt(msg)) => assert!(msg.contains("reverse ports"), "{msg}"),
            other => panic!("expected corrupt reverse ports, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ReadError::Truncated { section: "arcs" };
        assert!(e.to_string().contains("arcs"));
        let e = ReadError::ChecksumMismatch {
            computed: 1,
            stored: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = ReadError::HeaderOutOfRange {
            field: "m",
            value: 7,
        };
        assert!(e.to_string().contains('m'));
        assert!(ReadError::BadMagic(*b"XXXXXXXX")
            .to_string()
            .contains("magic"));
        assert!(ReadError::TrailingBytes.to_string().contains("trailing"));
        assert!(ReadError::UnsupportedVersion(3).to_string().contains('3'));
        assert!(corrupt("x").to_string().contains('x'));
        let e = ReadError::Io(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }

    #[test]
    fn content_hash_matches_the_footer_and_separates_graphs() {
        let mut rng = Rng::seed_from(11);
        let g = gen::gnp(40, 0.15, &mut rng);
        let bytes = roundtrip_bytes(&g);
        let footer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(content_hash(&g), footer);
        let (h, read_hash) = read_graph_with_hash(&bytes[..]).unwrap();
        assert_eq!(read_hash, footer);
        assert_eq!(h, g);
        // Different graphs (even same n, m ± structure) hash apart.
        assert_ne!(content_hash(&gen::path(5)), content_hash(&gen::cycle(5)));
        assert_ne!(content_hash(&gen::path(5)), content_hash(&gen::path(6)));
    }

    #[test]
    fn content_hash_and_length_are_pinned() {
        // The container's bytes are a contract: `file/<hash>` cell keys
        // (goldens, the serve cache) name instances by this hash, so any
        // change to the in-memory representation must leave it intact.
        let pl = gen::registry()
            .get("powerlaw/2.1")
            .expect("registered")
            .build(4096, 0)
            .expect("powerlaw instance");
        let small = Graph::from_edges(6, &[(3, 1), (1, 4), (0, 1), (3, 4), (5, 0), (2, 5), (1, 2)])
            .unwrap();
        assert!(small.sorted_port_order().is_some(), "adjacency unsorted");
        for (g, len, hash) in [
            (&pl, 598_936, 0x892a_7845_657f_5ce0_u64),
            (&small, 376, 0xfd1d_f89a_2e9a_eab8),
        ] {
            let bytes = roundtrip_bytes(g);
            assert_eq!(bytes.len(), len, "n={}", g.n());
            assert_eq!(content_hash(g), hash, "n={}", g.n());
            let (h, footer) = read_graph_with_hash(&bytes[..]).unwrap();
            assert_eq!((&h, footer), (g, hash), "n={}", g.n());
        }
    }

    #[test]
    fn path_helpers_roundtrip() {
        let dir = std::env::temp_dir().join(format!("localavg-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.csr");
        let g = gen::powerlaw(400, 2.1, 8.0, &mut Rng::seed_from(1));
        let written = write_graph_to_path(&file, &g).unwrap();
        assert_eq!(written, std::fs::metadata(&file).unwrap().len());
        let h = read_graph_from_path(&file).unwrap();
        assert_eq!(h, g);
        assert!(matches!(
            read_graph_from_path(dir.join("missing.csr")),
            Err(ReadError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_parses_snap_text_with_comments_loops_and_duplicates() {
        let text = "\
# A SNAP-style header comment
% a KONECT-style one
10 20
20 10
20 30
7 7

30\t10
";
        let imp = import_edge_list(text.as_bytes()).unwrap();
        // Raw ids {7, 10, 20, 30} → dense {0, 1, 2, 3} by sorted order;
        // node 7 only ever appeared in a self-loop, so it is isolated.
        assert_eq!(imp.nodes, 4);
        assert_eq!(imp.edges, 3);
        assert_eq!(imp.self_loops, 1);
        assert_eq!(imp.duplicates, 1);
        assert_eq!(imp.comments, 3);
        assert!(imp.graph.find_edge(1, 2).is_some()); // 10–20
        assert!(imp.graph.find_edge(2, 3).is_some()); // 20–30
        assert!(imp.graph.find_edge(1, 3).is_some()); // 10–30
        assert_eq!(imp.graph.degrees().collect::<Vec<_>>(), vec![0, 2, 2, 2]);
    }

    #[test]
    fn import_is_byte_stable_and_edge_order_invariant() {
        let a = import_edge_list("1 2\n2 3\n3 4\n".as_bytes()).unwrap();
        let b = import_edge_list("3 4\n2 1\n3 2\n".as_bytes()).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(content_hash(&a.graph), content_hash(&b.graph));
    }

    #[test]
    fn import_rejects_malformed_lines_with_line_numbers() {
        let one_token = import_edge_list("1 2\n3\n".as_bytes()).unwrap_err();
        assert!(matches!(one_token, ImportError::Parse { line: 2, .. }));
        let bad_token = import_edge_list("1 x\n".as_bytes()).unwrap_err();
        assert!(matches!(bad_token, ImportError::Parse { line: 1, .. }));
        let trailing = import_edge_list("1 2 0.5\n".as_bytes()).unwrap_err();
        let msg = trailing.to_string();
        assert!(msg.contains("line 1") && msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn import_roundtrips_through_the_csr_container() {
        let dir = std::env::temp_dir().join(format!("localavg-import-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("imported.csr");
        // A small tree written as a directed edge list with gaps in ids.
        let imp = import_edge_list("100 5\n5 42\n42 9000\n".as_bytes()).unwrap();
        write_graph_to_path(&file, &imp.graph).unwrap();
        let (back, read_hash) = read_graph_from_path_with_hash(&file).unwrap();
        assert_eq!(back, imp.graph);
        assert_eq!(content_hash(&imp.graph), read_hash);
        assert!(crate::analysis::is_forest(&back));
        std::fs::remove_dir_all(&dir).ok();
    }
}
