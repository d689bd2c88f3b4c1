//! Zero-dependency JSON and CSV emitters for [`SweepReport`]
//! (DESIGN.md §6).
//!
//! The emitters are hand-rolled (the workspace is std-only) and
//! **byte-deterministic**: the output is a pure function of the report —
//! fixed key order, fixed row order (cell expansion order), and floats
//! rendered with Rust's shortest-round-trip formatting, so a parallel and
//! a sequential sweep of the same spec serialize to identical bytes.
//!
//! # JSON schema (`localavg-sweep/v1`)
//!
//! ```json
//! {
//!   "schema": "localavg-sweep/v1",
//!   "spec": { "algorithms": [..], "generators": [..], "sizes": [..],
//!             "seeds": 2, "master_seed": 0 },
//!   "cells": [ { "algorithm": "mis/luby", "generator": "regular/4",
//!                "n": 64, "seed": 0,
//!                "graph": { "nodes": 64, "edges": 128,
//!                           "min_degree": 4, "max_degree": 4 },
//!                "metrics": { "node_averaged": 2.5, "edge_averaged": 3.1,
//!                             "edge_averaged_one_endpoint": 1.9,
//!                             "node_worst": 9, "rounds": 12,
//!                             "peak_message_bits": 64 } } ],
//!   "groups": [ { "algorithm": "mis/luby", "generator": "regular/4",
//!                 "n": 64, "runs": 2, "node_averaged": 2.4,
//!                 "edge_averaged": 3.0, "node_expected": 5.5,
//!                 "edge_expected": 6.0, "worst_case": 11.5,
//!                 "chain_holds": true,
//!                 "distributions": {
//!                   "node_time": { "count": 128, "mean": 2.4, "p50": 2,
//!                                  "p90": 5, "p99": 8, "max": 9,
//!                                  "histogram": [4, 30, 60, 30, 4] },
//!                   "edge_time": { ... },
//!                   "node_bits_sent": { ... } },
//!                 "topology": {
//!                   "nodes": 64, "edges": 128, "min_degree": 4,
//!                   "max_degree": 4, "mean_degree": 4,
//!                   "degree_histogram": [0, 0, 0, 64],
//!                   "degree_assortativity": 0, "components": 1 } } ]
//! }
//! ```
//!
//! The `distributions` and `topology` objects are **additive** schema
//! extensions: cell records are unchanged, and readers written against
//! the original `localavg-sweep/v1` group shape keep working because
//! every pre-existing key keeps its position and meaning. `node_time`
//! and `edge_time` pool Definition 1 completion times across the
//! group's runs; `node_bits_sent` pools per-node sent volume and is
//! present only when every run in the group carried a full audit
//! transcript. A cell's `peak_message_bits` is `null` when its run was
//! not audited (never the case in a sweep document; `exp serve` can
//! serve such cells under lean policies).
//!
//! The CSV emitters flatten the same data: [`cells_csv`] is one row per
//! cell, [`groups_csv`] one row per (algorithm, generator, size) group.

use crate::sweep::SweepReport;
use std::fmt::Write as _;

/// Escapes a string for a JSON string literal (quotes not included).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a JSON number token using Rust's
/// shortest-round-trip formatting (deterministic).
///
/// # Panics
///
/// Panics on non-finite input. No sweep metric produces NaN or an
/// infinity — every empty-set mean is pinned to `0.0` upstream (see
/// `localavg_core::metrics::mean`) — so a non-finite value reaching the
/// emitter is a bug in the metrics layer, and silently writing `null`
/// (the old behavior) would hide it from every downstream reader.
fn json_f64(x: f64) -> String {
    assert!(
        x.is_finite(),
        "non-finite value {x} reached the JSON emitter"
    );
    format!("{x}")
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// One cell row of the `localavg-sweep/v1` schema, borrowed by key.
///
/// This is the *wire form* of a measured cell: [`to_json`] renders one
/// per sweep cell, and `exp serve` streams exactly the same object per
/// served result — byte identity between the two is structural, not
/// coincidental, because both go through [`cell_json`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRow<'a> {
    /// Algorithm registry key.
    pub algorithm: &'a str,
    /// Generator registry key.
    pub generator: &'a str,
    /// Target size.
    pub n: usize,
    /// Seed index.
    pub seed: u64,
    /// Realized node count.
    pub nodes: usize,
    /// Realized edge count.
    pub edges: usize,
    /// Minimum degree of the instance.
    pub min_degree: usize,
    /// Maximum degree of the instance.
    pub max_degree: usize,
    /// `AVG_V` (Definition 1).
    pub node_averaged: f64,
    /// `AVG_E` (Definition 1).
    pub edge_averaged: f64,
    /// Edge average under the one-endpoint convention (fn. 2).
    pub edge_averaged_one_endpoint: f64,
    /// Maximum node completion time.
    pub node_worst: usize,
    /// Total rounds until global termination.
    pub rounds: usize,
    /// Peak CONGEST message size, in bits; `None` (rendered as JSON
    /// `null`) when the transcript policy skipped the CONGEST audit.
    pub peak_message_bits: Option<usize>,
}

/// Renders one `localavg-sweep/v1` cell object (no indent, no trailing
/// comma) — the single code path behind both the sweep JSON document and
/// the `exp serve` result stream.
pub fn cell_json(row: &CellRow<'_>) -> String {
    format!(
        "{{\"algorithm\": \"{}\", \"generator\": \"{}\", \"n\": {}, \"seed\": {}, \
         \"graph\": {{\"nodes\": {}, \"edges\": {}, \"min_degree\": {}, \"max_degree\": {}}}, \
         \"metrics\": {{\"node_averaged\": {}, \"edge_averaged\": {}, \
         \"edge_averaged_one_endpoint\": {}, \"node_worst\": {}, \"rounds\": {}, \
         \"peak_message_bits\": {}}}}}",
        json_escape(row.algorithm),
        json_escape(row.generator),
        row.n,
        row.seed,
        row.nodes,
        row.edges,
        row.min_degree,
        row.max_degree,
        json_f64(row.node_averaged),
        json_f64(row.edge_averaged),
        json_f64(row.edge_averaged_one_endpoint),
        row.node_worst,
        row.rounds,
        row.peak_message_bits
            .map_or_else(|| "null".to_string(), |b| b.to_string())
    )
}

/// Renders a [`Distribution`] summary object (fixed key order).
fn distribution_json(d: &localavg_core::metrics::Distribution) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \
         \"histogram\": [{}]}}",
        d.count,
        json_f64(d.mean),
        d.p50,
        d.p90,
        d.p99,
        d.max,
        d.histogram
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Renders a group's pooled [`GroupDistributions`](crate::sweep::GroupDistributions).
fn distributions_json(d: &crate::sweep::GroupDistributions) -> String {
    let mut out = format!(
        "{{\"node_time\": {}, \"edge_time\": {}",
        distribution_json(&d.node_time),
        distribution_json(&d.edge_time)
    );
    if let Some(bits) = &d.node_bits_sent {
        let _ = write!(out, ", \"node_bits_sent\": {}", distribution_json(bits));
    }
    out.push('}');
    out
}

/// Renders a group instance's [`TopologyStats`](localavg_graph::analysis::TopologyStats).
fn topology_json(t: &localavg_graph::analysis::TopologyStats) -> String {
    format!(
        "{{\"nodes\": {}, \"edges\": {}, \"min_degree\": {}, \"max_degree\": {}, \
         \"mean_degree\": {}, \"degree_histogram\": [{}], \"degree_assortativity\": {}, \
         \"components\": {}}}",
        t.nodes,
        t.edges,
        t.min_degree,
        t.max_degree,
        json_f64(t.mean_degree),
        t.degree_histogram
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        json_f64(t.degree_assortativity),
        t.components
    )
}

/// Serializes a report to the `localavg-sweep/v1` JSON document.
pub fn to_json(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"localavg-sweep/v1\",\n");
    let spec = &report.spec;
    let _ = write!(
        out,
        "  \"spec\": {{\n    \"algorithms\": {},\n    \"generators\": {},\n    \"sizes\": [{}],\n    \"seeds\": {},\n    \"master_seed\": {}\n  }},\n",
        json_str_array(&spec.algorithms),
        json_str_array(&spec.generators),
        spec.sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        spec.seeds,
        spec.master_seed
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in report.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            cell_json(&c.row()),
            if i + 1 < report.cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"groups\": [\n");
    for (i, g) in report.groups.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"algorithm\": \"{}\", \"generator\": \"{}\", \"n\": {}, \"runs\": {}, \
             \"node_averaged\": {}, \"edge_averaged\": {}, \"node_expected\": {}, \
             \"edge_expected\": {}, \"worst_case\": {}, \"chain_holds\": {}, \
             \"distributions\": {}, \"topology\": {}}}{}",
            json_escape(&g.algorithm),
            json_escape(&g.generator),
            g.n,
            g.runs,
            json_f64(g.node_averaged),
            json_f64(g.edge_averaged),
            json_f64(g.node_expected),
            json_f64(g.edge_expected),
            json_f64(g.worst_case),
            g.chain_holds,
            distributions_json(&g.distributions),
            topology_json(&g.topology),
            if i + 1 < report.groups.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Quotes a CSV field when it contains a separator, quote, or newline
/// (RFC 4180 rules; registry keys normally pass through untouched).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One CSV row per cell.
pub fn cells_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "algorithm,generator,n,seed,nodes,edges,min_degree,max_degree,\
         node_averaged,edge_averaged,edge_averaged_one_endpoint,node_worst,rounds,peak_message_bits\n",
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(c.cell.algorithm),
            csv_field(c.cell.generator),
            c.cell.n,
            c.cell.seed,
            c.nodes,
            c.edges,
            c.min_degree,
            c.max_degree,
            c.node_averaged,
            c.edge_averaged,
            c.edge_averaged_one_endpoint,
            c.node_worst,
            c.rounds,
            // Unaudited cells leave the column empty (sweeps always
            // audit, so the committed goldens never exercise this arm).
            c.peak_message_bits
                .map_or_else(String::new, |b| b.to_string())
        );
    }
    out
}

/// One CSV row per (algorithm, generator, size) group aggregate.
pub fn groups_csv(report: &SweepReport) -> String {
    let mut out = String::from(
        "algorithm,generator,n,runs,node_averaged,edge_averaged,\
         node_expected,edge_expected,worst_case,chain_holds\n",
    );
    for g in &report.groups {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            csv_field(&g.algorithm),
            csv_field(&g.generator),
            g.n,
            g.runs,
            g.node_averaged,
            g.edge_averaged,
            g.node_expected,
            g.edge_expected,
            g.worst_case,
            g.chain_holds
        );
    }
    out
}

/// Renders the group aggregates as a markdown [`crate::Table`] — the
/// human-readable view `exp sweep` prints alongside the machine output.
pub fn groups_table(report: &SweepReport) -> crate::Table {
    let mut t = crate::Table::new(
        "Sweep aggregates (per algorithm × family × size, over the seed axis)",
        &[
            "algorithm",
            "family",
            "n",
            "runs",
            "node-avg",
            "edge-avg",
            "EXP_V",
            "worst",
            "chain",
        ],
    );
    for g in &report.groups {
        t.row(vec![
            g.algorithm.clone(),
            g.generator.clone(),
            g.n.to_string(),
            g.runs.to_string(),
            crate::table::f2(g.node_averaged),
            crate::table::f2(g.edge_averaged),
            crate::table::f2(g.node_expected),
            crate::table::f2(g.worst_case),
            if g.chain_holds { "ok" } else { "BROKEN" }.to_string(),
        ]);
    }
    t.note("Each group runs every seed on one fixed instance, so EXP_V estimates Appendix A's expected complexity; `chain` checks AVG ≤ AVG^w ≤ EXP ≤ WORST.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run, SweepSpec};

    fn tiny_report() -> SweepReport {
        let spec = SweepSpec {
            algorithms: vec!["mis/greedy".into(), "mis/luby".into()],
            generators: vec!["path".into()],
            sizes: vec![16],
            seeds: 2,
            master_seed: 1,
            params: Vec::new(),
        };
        run(&spec, 2).unwrap()
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain/key"), "plain/key");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_numbers() {
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(-0.75), "-0.75");
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn json_rejects_nan() {
        let _ = json_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn json_rejects_infinity() {
        let _ = json_f64(f64::NEG_INFINITY);
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("mis/luby"), "mis/luby");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn json_document_shape() {
        let report = tiny_report();
        let json = to_json(&report);
        assert!(json.starts_with("{\n  \"schema\": \"localavg-sweep/v1\""));
        assert!(json.ends_with("  ]\n}\n"));
        assert_eq!(json.matches("\"graph\":").count(), report.cells.len());
        assert_eq!(
            json.matches("\"chain_holds\":").count(),
            report.groups.len()
        );
        // Every group record carries the additive v1 extensions, and the
        // sweep engine always audits, so the volume distribution is
        // present in every group too.
        assert_eq!(
            json.matches("\"distributions\":").count(),
            report.groups.len()
        );
        assert_eq!(json.matches("\"topology\":").count(), report.groups.len());
        assert_eq!(
            json.matches("\"node_bits_sent\":").count(),
            report.groups.len()
        );
        assert!(!json.contains("NaN") && !json.contains("Infinity"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_row_counts() {
        let report = tiny_report();
        let cells = cells_csv(&report);
        assert_eq!(cells.lines().count(), report.cells.len() + 1);
        assert!(cells.starts_with("algorithm,generator,n,seed,"));
        let groups = groups_csv(&report);
        assert_eq!(groups.lines().count(), report.groups.len() + 1);
        for line in cells.lines().skip(1) {
            assert_eq!(line.split(',').count(), 14, "bad row: {line}");
        }
    }

    #[test]
    fn unaudited_cells_render_a_null_peak() {
        let report = tiny_report();
        let mut row = report.cells[0].row();
        assert!(
            !cell_json(&row).contains("null"),
            "audited cells render a numeric peak"
        );
        row.peak_message_bits = None;
        assert!(cell_json(&row).ends_with("\"peak_message_bits\": null}}"));
        // The CSV column is empty rather than a fake zero.
        let mut unaudited = report.clone();
        unaudited.cells[0].peak_message_bits = None;
        let line = cells_csv(&unaudited).lines().nth(1).unwrap().to_string();
        assert!(line.ends_with(','), "empty trailing column: {line}");
        assert_eq!(line.split(',').count(), 14);
    }

    #[test]
    fn distribution_and_topology_objects_are_well_formed() {
        let report = tiny_report();
        let g = &report.groups[0];
        let d = distributions_json(&g.distributions);
        assert!(d.starts_with("{\"node_time\": {\"count\": "));
        assert!(d.contains("\"edge_time\": "));
        assert!(d.contains("\"node_bits_sent\": "), "sweeps always audit");
        let t = topology_json(&g.topology);
        assert!(t.starts_with("{\"nodes\": 16, \"edges\": 15, "));
        assert!(t.contains("\"degree_assortativity\": "));
        assert!(t.ends_with("\"components\": 1}"));
        for s in [d, t] {
            assert_eq!(s.matches('{').count(), s.matches('}').count());
            assert_eq!(s.matches('[').count(), s.matches(']').count());
        }
    }

    #[test]
    fn groups_table_renders() {
        let report = tiny_report();
        let t = groups_table(&report);
        assert_eq!(t.rows.len(), report.groups.len());
        assert!(t.to_string().contains("mis/luby"));
    }
}
