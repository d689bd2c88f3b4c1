//! Experiment runner, sweep driver, and registry-driven algorithm driver.
//!
//! ```text
//! cargo run --release -p localavg-bench --bin exp              # all experiments, full scale
//! cargo run --release -p localavg-bench --bin exp -- quick     # smoke scale
//! cargo run --release -p localavg-bench --bin exp -- e9        # one experiment
//! cargo run --release -p localavg-bench --bin exp -- --list    # list registered algorithms
//! cargo run --release -p localavg-bench --bin exp -- --list --problem mis
//! cargo run --release -p localavg-bench --bin exp -- --algo mis/luby --n 512 --d 8 --seed 3
//! cargo run --release -p localavg-bench --bin exp -- --algo mis/luby --param mis/luby:mark-factor=0.25
//! cargo run --release -p localavg-bench --bin exp -- sweep --scale quick --threads 8 --out out.json
//! cargo run --release -p localavg-bench --bin exp -- sweep --problem coloring --param coloring/trial:extra-colors=4
//! cargo run --release -p localavg-bench --bin exp -- gen --generator powerlaw/2.1 --n 1e7 --seed 0 --out big.csr
//! cargo run --release -p localavg-bench --bin exp -- import --in edges.txt --out imported.csr
//! cargo run --release -p localavg-bench --bin exp -- sweep --graph-file big.csr --algorithms mis/luby
//! cargo run --release -p localavg-bench --bin exp -- fuzz --cases 500 --master-seed 5
//! cargo run --release -p localavg-bench --bin exp -- fuzz --generators lb/lift/1,tree/spider
//! cargo run --release -p localavg-bench --bin exp -- serve --port 0 --port-file port.txt
//! cargo run --release -p localavg-bench --bin exp -- submit --addr 127.0.0.1:7411 --scale quick
//! cargo run --release -p localavg-bench --bin exp -- submit --addr $(cat port.txt) --stats --shutdown
//! ```
//!
//! `--algo` runs a single algorithm (looked up in the string registry) on
//! a random d-regular graph and prints its verified complexity report;
//! unknown names fail with a closest-match suggestion. `--problem`
//! filters `--list` and selects whole families in `sweep` (unknown
//! problem names also fail with a suggestion), and `--param
//! family/name:key=value` overrides string-keyed algorithm parameters
//! (repeatable; validated per algorithm).
//!
//! `sweep` runs the sharded parallel sweep engine (DESIGN.md §6) over a
//! grid of registry algorithms × named graph families × sizes × seeds and
//! emits machine-readable JSON or CSV; output bytes are independent of
//! `--threads` (`0` = all available cores, like `Exec::Parallel`).
//!
//! `gen` builds one named instance with the sweep's content-addressed
//! seed and persists it as a `localavg-csr/v1` file (DESIGN.md §10);
//! `--graph-file FILE` on `sweep` loads such a file as a
//! `file/<content-hash>` pseudo-family, so 1e7-node instances are built
//! once and measured many times. Sizes everywhere accept `4096`,
//! `10_000_000`, and `1e7` forms.
//!
//! `fuzz` runs the seeded differential harness (DESIGN.md §8): sampled
//! (family × size × algorithm × params × policy × executor) cells are
//! cross-checked against the independent `localavg_core::check` oracle,
//! and any disagreement is shrunk to a minimal failing tuple.
//!
//! `serve` runs the long-lived result daemon (DESIGN.md §9): a TCP
//! JSON-lines service that answers submitted cell tuples from a
//! content-addressed cache, executing each distinct tuple at most once
//! per daemon lifetime. `submit` is its batch client: cells come from
//! `--scale quick|full` (the default sweep grids), `--file batch.jsonl`,
//! or stdin, and results stream to stdout in the `localavg-sweep/v1`
//! cell schema — byte-identical to what `exp sweep` would emit for the
//! same tuples under the daemon's `--master-seed`.

use localavg_bench::cell::{self, CellKey};
use localavg_bench::cli::{flag_list, flag_value, flag_values};
use localavg_bench::experiments::{self, Scale};
use localavg_bench::serve;
use localavg_bench::serve::protocol::{parse_cell, Json};
use localavg_bench::sweep::{ParamOverride, SweepError};
use localavg_bench::{cli, emit, fuzz, generators, sweep, Table};
use localavg_core::algo::{registry, Problem, RunSpec, Workspace};
use localavg_graph::suggest::closest_match;
use localavg_graph::{gen, rng::Rng};
use localavg_sim::engine::resolve_threads;
use std::io::Read as _;
use std::net::SocketAddr;
use std::time::Instant;

/// Parses `--problem NAME`, exiting with a suggestion on unknown names.
fn parse_problem(args: &[String]) -> Option<Problem> {
    let name = flag_value(args, "--problem")?;
    match Problem::parse(&name) {
        Some(p) => Some(p),
        None => {
            eprint!("error: unknown problem `{name}`");
            match Problem::suggest(&name) {
                Some(close) => eprintln!(" — did you mean `{close}`?"),
                None => eprintln!(),
            }
            let keys: Vec<&str> = Problem::ALL.iter().map(|p| p.key()).collect();
            eprintln!("known problems: {}", keys.join(", "));
            std::process::exit(2);
        }
    }
}

/// Parses every repeatable `--param family/name:key=value` occurrence.
fn parse_params(args: &[String]) -> Vec<ParamOverride> {
    flag_values(args, "--param")
        .iter()
        .map(|s| {
            ParamOverride::parse(s).unwrap_or_else(|e| {
                eprintln!("error: --param {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn print_algo_list(problem: Option<Problem>) {
    let mut t = Table::new(
        "Registered algorithms (`--algo <name>` runs one)",
        &["name", "problem", "deterministic", "domain", "params"],
    );
    // Grouped by problem (not raw registration order) so late additions
    // like the `*/tree-rc` family sit under their problem headings.
    for p in Problem::ALL {
        if problem.is_some_and(|want| p != want) {
            continue;
        }
        for a in registry().by_problem(p) {
            let domain = if a.requires_tree() {
                "trees only".to_string()
            } else {
                match a.problem().min_degree() {
                    0 => "any graph".to_string(),
                    d => format!("min degree ≥ {d}"),
                }
            };
            let params = a
                .param_specs()
                .iter()
                .map(|s| format!("{}={}", s.key, s.default))
                .collect::<Vec<_>>()
                .join(" ");
            t.row(vec![
                a.name().to_string(),
                a.problem().label().to_string(),
                a.deterministic().to_string(),
                domain,
                if params.is_empty() {
                    "—".to_string()
                } else {
                    params
                },
            ]);
        }
    }
    println!("{t}");
}

/// [`cli::parse_usize`] with the binary's exit-on-error behaviour.
fn parse_usize(args: &[String], flag: &str, default: usize) -> usize {
    cli::parse_usize(args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`cli::parse_size_list`] for `--sizes` (accepting `4096`,
/// `10_000_000`, and `1e7` forms) with the binary's exit-on-error
/// behaviour.
fn parse_sizes(args: &[String]) -> Option<Vec<usize>> {
    cli::parse_size_list(args, "--sizes").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Loads the `--graph-file` instance, if the flag is present.
fn parse_graph_file(args: &[String]) -> Option<sweep::FileGraph> {
    flag_value(args, "--graph-file").map(|path| {
        sweep::FileGraph::load(&path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    })
}

/// Splices a loaded `--graph-file` pseudo-family into a grid: it joins
/// an explicit `--generators` list (or replaces the default one), and
/// with no explicit `--sizes` the size axis collapses to the instance's
/// realized node count.
fn splice_graph_file(
    args: &[String],
    file: &sweep::FileGraph,
    generators: &mut Vec<String>,
    sizes: &mut Vec<usize>,
) {
    if flag_value(args, "--generators").is_some() {
        generators.push(file.family.to_string());
    } else {
        *generators = vec![file.family.to_string()];
    }
    if flag_value(args, "--sizes").is_none() {
        *sizes = vec![file.graph.n()];
    }
}

fn run_single_algo(args: &[String], name: &str) {
    let overrides = parse_params(args);
    if let Some(other) = overrides.iter().find(|p| p.algorithm != name) {
        eprintln!(
            "error: --param {}:{}={} does not apply to `{name}`",
            other.algorithm, other.key, other.value
        );
        std::process::exit(2);
    }
    let kvs: Vec<(&str, &str)> = overrides
        .iter()
        .map(|p| (p.key.as_str(), p.value.as_str()))
        .collect();
    let algo = cell::resolve_algorithm(name, &kvs).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        if matches!(e, SweepError::UnknownAlgorithm { .. }) {
            eprintln!("hint: `--list` prints every registered algorithm");
        }
        std::process::exit(2);
    });
    let n = parse_usize(args, "--n", 256);
    let d = parse_usize(args, "--d", 4);
    let seed = parse_usize(args, "--seed", 1) as u64;
    if algo.problem().min_degree() > d {
        eprintln!(
            "error: {} requires min degree {} (got --d {d})",
            algo.name(),
            algo.problem().min_degree()
        );
        std::process::exit(2);
    }
    let mut rng = Rng::seed_from(seed ^ 0xD15EA5E);
    let g = if algo.requires_tree() {
        // `*/tree-rc` only runs on forests: a regular graph would be
        // rejected with a typed NotATree, so drive it on a random tree
        // (--d is meaningless there and ignored).
        let g = gen::random_tree(n, &mut rng);
        println!(
            "{} ({}) on a random tree, n={n}, seed={seed} (tree-only domain; --d ignored)",
            algo.name(),
            algo.problem()
        );
        g
    } else {
        let g = gen::random_regular(n, d, &mut rng).unwrap_or_else(|e| {
            eprintln!("error: cannot build a {d}-regular graph on {n} nodes: {e:?}");
            std::process::exit(2);
        });
        println!(
            "{} ({}) on a random {d}-regular graph, n={n}, seed={seed}",
            algo.name(),
            algo.problem()
        );
        g
    };
    let mut ws = Workspace::new();
    let run = algo.execute_in(&g, &RunSpec::new(seed), &mut ws);
    match run.verify(&g) {
        Ok(()) => println!("output verified: valid {}", algo.problem()),
        Err(e) => {
            eprintln!("OUTPUT INVALID: {e}");
            std::process::exit(1);
        }
    }
    let rep = run.report(&g);
    println!(
        "node-averaged (AVG_V)            : {:.2}",
        rep.node_averaged
    );
    println!(
        "edge-averaged (AVG_E)            : {:.2}",
        rep.edge_averaged
    );
    println!(
        "edge-averaged (one endpoint, fn.2): {:.2}",
        rep.edge_averaged_one_endpoint
    );
    println!("worst node completion            : {}", rep.node_worst);
    println!("total rounds (worst case)        : {}", rep.rounds);
    println!(
        "termination-time node average    : {:.2}",
        rep.node_averaged_termination
    );
    // Engine cost next to Definition 1's clocks: activations per node.
    // Sleeping nodes are live but not activated, so this can undercut
    // the termination average + 1 (= Σ live / n).
    let awake = ws.stats().awake_node_rounds;
    println!(
        "awake node-rounds per node       : {:.2}{}",
        awake as f64 / g.n().max(1) as f64,
        if awake == 0 {
            " (no engine rounds)"
        } else {
            ""
        }
    );
    match run.transcript.peak_message_bits() {
        Some(bits) => println!("CONGEST audit: peak message size = {bits} bits"),
        None => println!("CONGEST audit: skipped (transcript policy)"),
    }
}

fn parse_scale(args: &[String]) -> Scale {
    match flag_value(args, "--scale").as_deref() {
        None | Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        Some(other) => {
            eprintln!("error: --scale expects `quick` or `full`, got `{other}`");
            std::process::exit(2);
        }
    }
}

/// Rejects unknown or value-less `exp sweep` options up front (see
/// `cli::validate_flags` for why).
fn validate_sweep_args(args: &[String]) {
    const VALUED: [&str; 12] = [
        "--scale",
        "--threads",
        "--out",
        "--format",
        "--algorithms",
        "--generators",
        "--sizes",
        "--seeds",
        "--master-seed",
        "--problem",
        "--param",
        "--graph-file",
    ];
    if let Err(e) = cli::validate_flags(args, &VALUED, &["--list-generators"]) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --scale quick|full, --threads N, --out FILE, --format json|csv, \
             --algorithms a,b, --generators g,h, --sizes n,m, --seeds K, --master-seed S, \
             --problem P, --param algo:key=value, --graph-file FILE, --list-generators"
        );
        std::process::exit(2);
    }
}

/// The `exp sweep` subcommand: grid → sharded run → JSON/CSV.
fn run_sweep(args: &[String]) {
    validate_sweep_args(args);
    if args.iter().any(|a| a == "--list-generators") {
        let mut t = Table::new(
            "Registered graph families (`--generators a,b` selects a subset)",
            &["name", "description"],
        );
        for g in generators::registry().iter() {
            t.row(vec![g.name().to_string(), g.description().to_string()]);
        }
        println!("{t}");
        return;
    }

    let mut spec = sweep::SweepSpec::for_scale(parse_scale(args));
    let problem = parse_problem(args);
    if let Some(p) = problem {
        if flag_value(args, "--algorithms").is_some() {
            eprintln!("error: --problem and --algorithms are mutually exclusive");
            std::process::exit(2);
        }
        spec.algorithms = registry()
            .by_problem(p)
            .map(|a| a.name().to_string())
            .collect();
    }
    if let Some(algos) = flag_list(args, "--algorithms") {
        spec.algorithms = algos;
    }
    spec.params = parse_params(args);
    if let Some(gens) = flag_list(args, "--generators") {
        spec.generators = gens;
    }
    if let Some(sizes) = parse_sizes(args) {
        spec.sizes = sizes;
    }
    let graph_file = parse_graph_file(args);
    if let Some(f) = &graph_file {
        splice_graph_file(args, f, &mut spec.generators, &mut spec.sizes);
    }
    spec.seeds = parse_usize(args, "--seeds", spec.seeds as usize) as u64;
    spec.master_seed = parse_usize(args, "--master-seed", spec.master_seed as usize) as u64;
    // `--threads 0` (and the flag's absence) mean "all available cores",
    // mirroring `Exec::Parallel { threads: 0 }`.
    let threads = cli::parse_threads(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let format = flag_value(args, "--format").unwrap_or_else(|| "json".to_string());
    if format != "json" && format != "csv" {
        eprintln!("error: --format expects `json` or `csv`, got `{format}`");
        std::process::exit(2);
    }

    let report = sweep::run_with_file(&spec, threads, graph_file.as_ref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("hint: `exp sweep --list-generators` and `exp --list` print the registries");
        std::process::exit(2);
    });

    match flag_value(args, "--out") {
        None => {
            // No --out: machine output goes to stdout, pipeable.
            if format == "json" {
                print!("{}", emit::to_json(&report));
            } else {
                print!("{}", emit::cells_csv(&report));
            }
        }
        Some(out) => {
            let write = |path: &str, data: &str| {
                std::fs::write(path, data).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("wrote {path}");
            };
            if format == "json" {
                write(&out, &emit::to_json(&report));
            } else {
                write(&out, &emit::cells_csv(&report));
                let groups_path = match out.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}-groups.{ext}"),
                    None => format!("{out}-groups"),
                };
                write(&groups_path, &emit::groups_csv(&report));
            }
            println!(
                "{} cells, {} groups, {threads} thread(s)\n",
                report.cells.len(),
                report.groups.len()
            );
            println!("{}", emit::groups_table(&report));
        }
    }
}

/// Peak resident set size of this process in bytes, from Linux's
/// `/proc/self/status` `VmHWM` line; `None` where that proc file does
/// not exist. Used by `exp gen` to report the streaming build's actual
/// memory high-water mark next to the on-disk size.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Rejects unknown or value-less `exp gen` options up front.
fn validate_gen_args(args: &[String]) {
    const VALUED: [&str; 4] = ["--generator", "--n", "--seed", "--out"];
    if let Err(e) = cli::validate_flags(args, &VALUED, &[]) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --generator F, --n N (accepts 1e7/10_000_000 forms), \
             --seed S (master seed, default 0), --out FILE"
        );
        std::process::exit(2);
    }
}

/// The `exp gen` subcommand: build one named instance with the sweep's
/// content-addressed seed and persist it as a `localavg-csr/v1` file.
/// `--seed` is the *master* seed: `gen --generator F --n N --seed S`
/// writes exactly the instance `exp sweep --generators F --sizes N
/// --master-seed S` would build in memory, so file-backed and in-memory
/// measurements of the same cell agree.
fn run_gen(args: &[String]) {
    validate_gen_args(args);
    let Some(gname) = flag_value(args, "--generator") else {
        eprintln!("error: --generator F is required (see `exp sweep --list-generators`)");
        std::process::exit(2);
    };
    let Some(n_text) = flag_value(args, "--n") else {
        eprintln!("error: --n N is required");
        std::process::exit(2);
    };
    let n = cli::parse_size(&n_text).unwrap_or_else(|e| {
        eprintln!("error: --n: {e}");
        std::process::exit(2);
    });
    let master_seed = parse_usize(args, "--seed", 0) as u64;
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("error: --out FILE is required");
        std::process::exit(2);
    };
    let build_start = Instant::now();
    let g = cell::build_instance(&gname, n, master_seed).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(if matches!(e, SweepError::GraphBuild { .. }) {
            1
        } else {
            2
        });
    });
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let write_start = Instant::now();
    let written = localavg_graph::io::write_graph_to_path(&out, &g).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    let write_ms = write_start.elapsed().as_secs_f64() * 1e3;
    let hash = localavg_graph::io::content_hash(&g);
    println!("gen: {gname} n={n} master-seed={master_seed} -> {out}");
    println!(
        "  instance   nodes {} edges {} min_degree {} max_degree {}",
        g.n(),
        g.m(),
        g.min_degree(),
        g.degrees().max().unwrap_or(0)
    );
    println!(
        "  cost       build {build_ms:.1} ms, write {write_ms:.1} ms, \
         {written} bytes on disk, {} bytes in memory",
        g.memory_bytes()
    );
    println!(
        "  family     {}   (use: exp sweep --graph-file {out})",
        cell::file_family(hash)
    );
    if let Some(rss) = peak_rss_bytes() {
        println!(
            "  peak RSS   {rss} bytes ({:.2}x of on-disk size)",
            rss as f64 / written as f64
        );
    }
}

/// Rejects unknown or value-less `exp fuzz` options up front.
fn validate_fuzz_args(args: &[String]) {
    const VALUED: [&str; 9] = [
        "--cases",
        "--master-seed",
        "--algorithms",
        "--generators",
        "--sizes",
        "--seed",
        "--policy",
        "--threads",
        "--param",
    ];
    if let Err(e) = cli::validate_flags(args, &VALUED, &["--exact"]) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --cases N, --master-seed S, --algorithms a,b, \
             --generators g,h, --sizes n,m, --exact (with --seed X, \
             --policy full|completions|none, --threads T, --param algo:key=value)"
        );
        std::process::exit(2);
    }
}

/// The `exp fuzz` subcommand: seeded differential verification of the
/// fast engine against the `localavg_core::check` oracle (DESIGN.md §8).
fn run_fuzz(args: &[String]) {
    validate_fuzz_args(args);
    let mut spec = fuzz::FuzzSpec::default();
    spec.cases = parse_usize(args, "--cases", spec.cases);
    spec.master_seed = parse_usize(args, "--master-seed", spec.master_seed as usize) as u64;
    if let Some(algos) = flag_list(args, "--algorithms") {
        spec.algorithms = algos;
    }
    if let Some(gens) = flag_list(args, "--generators") {
        spec.generators = gens;
    }
    if let Some(sizes) = parse_sizes(args) {
        spec.sizes = sizes;
    }
    // The pinned-cell flags only make sense under --exact: a sampled run
    // silently ignoring them would report cells the user did not ask for.
    let exact = args.iter().any(|a| a == "--exact");
    if !exact {
        for flag in ["--seed", "--policy", "--threads", "--param"] {
            if args.iter().any(|a| a == flag) {
                eprintln!("error: {flag} requires --exact (it pins one replay cell)");
                std::process::exit(2);
            }
        }
    } else {
        let overrides = parse_params(args);
        if let Some(other) = overrides
            .iter()
            .find(|p| !spec.algorithms.contains(&p.algorithm))
        {
            eprintln!(
                "error: --param {}:{}={} names an algorithm outside --algorithms",
                other.algorithm, other.key, other.value
            );
            std::process::exit(2);
        }
        spec.exact = Some(fuzz::ExactCell {
            seed: parse_usize(args, "--seed", 0) as u64,
            policy: cli::parse_policy(args).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            }),
            threads: parse_usize(args, "--threads", 0),
            params: overrides.into_iter().map(|p| (p.key, p.value)).collect(),
        });
    }
    let report = fuzz::run(&spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("hint: `exp sweep --list-generators` and `exp --list` print the registries");
        std::process::exit(2);
    });
    println!(
        "fuzz: {} cells across {} algorithms × {} families (master seed {})",
        report.cases,
        report.per_algorithm.len(),
        report.per_generator.len(),
        spec.master_seed
    );
    println!(
        "      {} brute-force-checked, {} mutation-checked",
        report.brute_checked, report.mutations_checked
    );
    match report.failure {
        None => println!("all differential checks passed"),
        Some(f) => {
            eprintln!("FAILURE: {}", f.message);
            eprintln!("  sampled at {}", f.original);
            eprintln!("  shrunk to  {}", f.shrunk);
            // --exact pins every axis, so this command replays the
            // shrunk cell verbatim (the master seed still selects the
            // graph instance). The flag string is rendered from the
            // cell's canonical key — the same code path the serve
            // cache addresses results by.
            eprintln!(
                "  replay: exp fuzz --exact {}",
                f.shrunk
                    .key()
                    .replay_flags(spec.master_seed, f.shrunk.threads)
            );
            std::process::exit(1);
        }
    }
}

/// Rejects unknown or value-less `exp serve` options up front.
fn validate_serve_args(args: &[String]) {
    const VALUED: [&str; 7] = [
        "--host",
        "--port",
        "--threads",
        "--cache-capacity",
        "--queue-capacity",
        "--master-seed",
        "--port-file",
    ];
    if let Err(e) = cli::validate_flags(args, &VALUED, &[]) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --host H, --port P (0 = ephemeral), --threads N (0 = auto), \
             --cache-capacity C, --queue-capacity Q, --master-seed S, --port-file FILE"
        );
        std::process::exit(2);
    }
}

/// The `exp serve` subcommand: run the result daemon until a client
/// sends `{"op": "shutdown"}` (DESIGN.md §9).
fn run_serve(args: &[String]) {
    validate_serve_args(args);
    let mut cfg = serve::ServeConfig::default();
    if let Some(host) = flag_value(args, "--host") {
        cfg.host = host;
    }
    let port = parse_usize(args, "--port", 0);
    cfg.port = u16::try_from(port).unwrap_or_else(|_| {
        eprintln!("error: --port expects 0..=65535, got {port}");
        std::process::exit(2);
    });
    // `--threads 0` (and the flag's absence) mean "all available
    // cores", mirroring `exp sweep`.
    cfg.threads = resolve_threads(parse_usize(args, "--threads", 0));
    cfg.cache_capacity = parse_usize(args, "--cache-capacity", cfg.cache_capacity);
    cfg.queue_capacity = parse_usize(args, "--queue-capacity", cfg.queue_capacity);
    cfg.master_seed = parse_usize(args, "--master-seed", 0) as u64;
    let port_file = flag_value(args, "--port-file");
    let threads = cfg.threads;
    let master_seed = cfg.master_seed;
    let outcome = serve::run(&cfg, |addr| {
        eprintln!(
            "exp serve: listening on {addr} ({threads} worker(s), master seed {master_seed})"
        );
        if let Some(path) = &port_file {
            // CI and scripts read the bound (possibly ephemeral)
            // address from here instead of parsing stderr.
            std::fs::write(path, format!("{addr}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
        }
    });
    if let Err(e) = outcome {
        eprintln!("error: cannot serve on {}:{}: {e}", cfg.host, cfg.port);
        std::process::exit(1);
    }
    eprintln!("exp serve: shut down cleanly");
}

/// Rejects unknown or value-less `exp submit` options up front.
fn validate_submit_args(args: &[String]) {
    const VALUED: [&str; 4] = ["--addr", "--file", "--scale", "--out"];
    if let Err(e) = cli::validate_flags(args, &VALUED, &["--stats", "--shutdown"]) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --addr HOST:PORT, --scale quick|full, --file BATCH.jsonl \
             (default: stdin), --out FILE, --stats, --shutdown"
        );
        std::process::exit(2);
    }
}

/// Parses a batch of cell objects, one JSON object per line.
fn parse_batch(source: &str, text: &str) -> Vec<CellKey> {
    let mut cells = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| parse_cell(&v));
        match parsed {
            Ok(key) => cells.push(key),
            Err(e) => {
                eprintln!("error: {source}:{}: {e}", lineno + 1);
                std::process::exit(2);
            }
        }
    }
    cells
}

/// The `exp submit` subcommand: stream a batch of cells through a
/// running `exp serve` daemon.
fn run_submit(args: &[String]) {
    validate_submit_args(args);
    let Some(addr_text) = flag_value(args, "--addr") else {
        eprintln!("error: --addr HOST:PORT is required (e.g. --addr $(cat port.txt))");
        std::process::exit(2);
    };
    let addr: SocketAddr = addr_text.trim().parse().unwrap_or_else(|e| {
        eprintln!("error: --addr `{addr_text}`: {e}");
        std::process::exit(2);
    });
    let want_stats = args.iter().any(|a| a == "--stats");
    let want_shutdown = args.iter().any(|a| a == "--shutdown");

    // Assemble the batch: --scale expands the default sweep grid,
    // --file reads cell objects line by line, bare `submit` reads the
    // same format from stdin (unless only --stats/--shutdown is asked).
    let cells: Vec<CellKey> = if flag_value(args, "--scale").is_some() {
        if flag_value(args, "--file").is_some() {
            eprintln!("error: --scale and --file are mutually exclusive");
            std::process::exit(2);
        }
        let spec = sweep::SweepSpec::for_scale(parse_scale(args));
        let expanded = spec.cells().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        expanded.iter().map(|c| c.key()).collect()
    } else if let Some(path) = flag_value(args, "--file") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        parse_batch(&path, &text)
    } else if want_stats || want_shutdown {
        Vec::new()
    } else {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot read stdin: {e}");
                std::process::exit(2);
            });
        parse_batch("<stdin>", &text)
    };

    let mut client = serve::Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut batch_errors = 0usize;
    if !cells.is_empty() {
        let start = Instant::now();
        let outcome = client.submit(&cells).unwrap_or_else(|e| {
            eprintln!("error: submit failed: {e}");
            std::process::exit(1);
        });
        let elapsed = start.elapsed();
        batch_errors = outcome.errors;
        let body = outcome.lines.join("\n") + "\n";
        match flag_value(args, "--out") {
            None => print!("{body}"),
            Some(out) => {
                std::fs::write(&out, &body).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {out}: {e}");
                    std::process::exit(1);
                });
                eprintln!("wrote {out}");
            }
        }
        eprintln!(
            "submit: {} cells in {:.1} ms ({} error(s))",
            outcome.cells,
            elapsed.as_secs_f64() * 1e3,
            outcome.errors
        );
    }
    if want_stats {
        let stats = client.stats().unwrap_or_else(|e| {
            eprintln!("error: stats failed: {e}");
            std::process::exit(1);
        });
        println!("{}", serve::protocol::stats_line(&stats));
    }
    if want_shutdown {
        client.shutdown().unwrap_or_else(|e| {
            eprintln!("error: shutdown failed: {e}");
            std::process::exit(1);
        });
        eprintln!("submit: server acknowledged shutdown");
    }
    if batch_errors > 0 {
        std::process::exit(1);
    }
}

/// Rejects an unrecognized leading word with a closest-match suggestion
/// (`exp serv` → "did you mean `serve`?") instead of silently falling
/// through to the run-every-experiment default.
fn validate_import_args(args: &[String]) {
    const VALUED: [&str; 2] = ["--in", "--out"];
    if let Err(e) = cli::validate_flags(args, &VALUED, &[]) {
        eprintln!("error: {e}");
        eprintln!("known options: --in EDGELIST.txt, --out FILE.csr");
        std::process::exit(2);
    }
}

/// The `exp import` subcommand: read a SNAP-style whitespace edge-list
/// text file, normalize it (dense sorted-id remap, self-loops dropped,
/// duplicate orientations collapsed), and persist the result as a
/// `localavg-csr/v1` file ready for `--graph-file`.
fn run_import(args: &[String]) {
    validate_import_args(args);
    let Some(input) = flag_value(args, "--in") else {
        eprintln!("error: --in EDGELIST.txt is required");
        std::process::exit(2);
    };
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("error: --out FILE is required");
        std::process::exit(2);
    };
    let parse_start = Instant::now();
    let imported = localavg_graph::io::import_edge_list_from_path(&input).unwrap_or_else(|e| {
        eprintln!("error: cannot import {input}: {e}");
        std::process::exit(1);
    });
    let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    let g = &imported.graph;
    let write_start = Instant::now();
    let written = localavg_graph::io::write_graph_to_path(&out, g).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    let write_ms = write_start.elapsed().as_secs_f64() * 1e3;
    let hash = localavg_graph::io::content_hash(g);
    println!("import: {input} -> {out}");
    println!(
        "  instance   nodes {} edges {} min_degree {} max_degree {}{}",
        g.n(),
        g.m(),
        g.min_degree(),
        g.degrees().max().unwrap_or(0),
        if localavg_graph::analysis::is_forest(g) {
            "   (forest: `*/tree-rc` in domain)"
        } else {
            ""
        }
    );
    println!(
        "  dropped    {} self-loop(s), {} duplicate edge line(s), {} comment/blank line(s)",
        imported.self_loops, imported.duplicates, imported.comments
    );
    println!(
        "  cost       parse {parse_ms:.1} ms, write {write_ms:.1} ms, {written} bytes on disk"
    );
    println!(
        "  family     {}   (use: exp sweep --graph-file {out})",
        cell::file_family(hash)
    );
}

fn reject_unknown_subcommand(args: &[String]) {
    const SUBCOMMANDS: [&str; 6] = ["sweep", "gen", "import", "fuzz", "serve", "submit"];
    let Some(first) = args.first() else { return };
    // Flags, the `quick` scale word, and experiment ids (`e1`..`e17`,
    // matched loosely as e-words) are left to `validate_bare_args`.
    if first.starts_with('-') || first == "quick" || first.starts_with('e') {
        return;
    }
    eprint!("error: unknown subcommand `{first}`");
    match closest_match(SUBCOMMANDS.iter().copied(), first) {
        Some(close) => eprintln!(" — did you mean `{close}`?"),
        None => eprintln!(),
    }
    eprintln!(
        "known subcommands: {} (or an experiment id e1..e17, `quick`, `--list`, `--algo`)",
        SUBCOMMANDS.join(", ")
    );
    std::process::exit(2);
}

/// Rejects unknown or value-less options of bare `exp` (no subcommand)
/// before anything runs: without this check a typo, or `--help`, would
/// silently start the full-scale experiment suite.
fn validate_bare_args(args: &[String]) {
    const VALUED: [&str; 6] = ["--algo", "--n", "--d", "--seed", "--param", "--problem"];
    let mut words = vec!["--list", "quick"];
    words.extend(experiments::EXPERIMENTS.iter().map(|(id, _)| *id));
    if let Err(e) = cli::validate_flags(args, &VALUED, &words) {
        eprintln!("error: {e}");
        eprintln!(
            "known options: --list, --problem P, --algo NAME, --n N, --d D, --seed S, \
             --param algo:key=value, quick, e1..e17 (subcommands: sweep, gen, import, \
             fuzz, serve, submit)"
        );
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("sweep") {
        run_sweep(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("gen") {
        run_gen(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("import") {
        run_import(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        run_fuzz(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("submit") {
        run_submit(&args[1..]);
        return;
    }
    reject_unknown_subcommand(&args);
    validate_bare_args(&args);
    if args.iter().any(|a| a == "--list") {
        print_algo_list(parse_problem(&args));
        return;
    }
    if let Some(name) = flag_value(&args, "--algo") {
        run_single_algo(&args, &name);
        return;
    }

    let scale = if args.iter().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let pick: Option<&str> = args.iter().find(|a| a.starts_with('e')).map(|s| s.as_str());

    let tables: Vec<Table> = match pick {
        Some(id) => match experiments::by_id(id, scale) {
            Some(t) => vec![t],
            None => {
                eprintln!("unknown experiment id: {id} (e1..e17)");
                std::process::exit(2);
            }
        },
        None => experiments::all(scale),
    };
    for table in tables {
        println!("{table}");
    }
}
