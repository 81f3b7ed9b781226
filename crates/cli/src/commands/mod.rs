//! Subcommand dispatch and shared graph/index loading helpers.

mod convert;
mod generate;
mod index_cmd;
mod log_cmd;
mod pmpn;
mod query;
mod remote;
mod router;
mod serve;
mod shard;
mod stats;
mod topk;

use crate::args::Parsed;
use rtk_graph::{DanglingPolicy, DiGraph};
use std::path::Path;

/// The command reference. Besides being the help text, it is the flag
/// table: a command accepts exactly the `--flag`s of the entries that name
/// it (see [`documented_flags`]), so help and parser cannot drift apart.
const USAGE: &str = "\
usage:
  rtk <command> … [--log-file F] [--log-level L]   every command takes these
  rtk generate <dataset> --out <file>            synthesize a graph
  rtk stats <graph>                              graph summary
  rtk index build <graph> --out <file> [--max-k K] [--hubs B] [--omega W] [--threads T] [--shards S]
  rtk index info <index>                         index statistics
  rtk shard split <index> --shards S [--balance nodes|edges --graph <g>] [--out F]
                                                 re-partition a saved index
  rtk shard merge <index> [--out F]              flatten to one shard (legacy format)
  rtk shard info <index>                         shard manifest summary
  rtk shard stitch <prefix> --index <index> [--out F]
                                                 reassemble persisted <prefix>.shard<i> sections
  rtk query <graph> <index> --node Q --k K [--update] [--strict] [--approximate] [--threads T]
  rtk topk <graph> --node U --k K [--early] [--alpha A] [--threads T]   forward top-k search
  rtk pmpn <graph> --node Q [--top N] [--alpha A] [--threads T]        proximities to a node
  rtk convert <in> <out>                         tsv <-> binary graph formats
  rtk serve --index <file> [--graph <file>] [--addr A] [--workers N]
            [--query-threads T] [--max-frame-mib M] [--max-connections C]
            [--max-inflight N] [--persist-dir D] [--auth-token T] [--metrics-addr A]
            [--update-log F] [--chaos SPEC]      run the TCP server
  rtk serve --shard-only --shard I --index <manifest> --graph <file> [...]
                                                 serve ONE shard (router backend)
  rtk router --backends a:p,b:p,… [--addr A] [--workers N] [--max-connections C]
             [--max-frame-mib M] [--max-inflight N] [--auth-token T] [--timeout S]
             [--hedge-quantile Q] [--hedge-min-delay-ms MS] [--probe-interval-ms MS]
             [--health-seed S] [--metrics-addr A]   fan-out router over shard backends
  rtk remote <cmd> … [--addr A] [--auth-token T] [--timeout S]   every remote command takes these
  rtk remote query --node Q --k K [--update] [--trace]   query a server/router
  rtk remote topk --node U --k K [--early]
  rtk remote batch --nodes a,b,c --k K [--pipeline]
  rtk remote add-edge --from U --to V [--weight W]   apply an edge insert
  rtk remote remove-edge --from U --to V             apply an edge removal
  rtk remote persist --out <server-path>         flush snapshot to disk
  rtk remote stats [--json]                      server/tier counters
  rtk remote ping|shutdown
  rtk log info <log> [--limit N]                 update-log (RTKULOG1) summary
  rtk log replay --index <snapshot> --log <log> --out <file>
                                                 deterministic snapshot + log replay

datasets for `generate`: toy, web-cs-small, web-cs-sim, epinions-sim,
web-std-sim, web-google-sim, webspam-sim, dblp-sim, rmat:<n>:<m>[:seed],
er:<n>:<m>[:seed], sf:<n>:<deg>[:seed]";

/// Routes `argv` to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    // An unknown subcommand matches no entry; its own module names it.
    if let Some(allowed) = documented_flags(argv) {
        crate::args::check_flags(argv, &allowed)
            .map_err(|e| format!("{cmd}: {e}; see `rtk help`"))?;
        init_logging(&Parsed::parse(&argv[1..])?)?;
    }
    let rest = &argv[1..];
    match cmd.as_str() {
        "generate" => generate::run(&Parsed::parse(rest)?),
        "stats" => stats::run(&Parsed::parse(rest)?),
        "index" => index_cmd::run(rest),
        "query" => query::run(&Parsed::parse(rest)?),
        "topk" => topk::run(&Parsed::parse(rest)?),
        "pmpn" => pmpn::run(&Parsed::parse(rest)?),
        "convert" => convert::run(&Parsed::parse(rest)?),
        "serve" => serve::run(&Parsed::parse(rest)?),
        "router" => router::run(&Parsed::parse(rest)?),
        "shard" => shard::run(rest),
        "remote" => remote::run(rest),
        "log" => log_cmd::run(rest),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// The flags [`USAGE`] documents for the command `argv` selects: the
/// `--flag` tokens of every entry whose command words lead `argv`. An
/// entry is a `  rtk …` line plus its deeper-indented continuation lines;
/// its words run up to the first `<placeholder>`, `[option]` or `--flag`,
/// and `a|b` matches either word. The `rtk <command> …` entry has no
/// words and so covers every command. `None` when no entry with words
/// matches — an unknown (sub)command.
fn documented_flags(argv: &[String]) -> Option<Vec<String>> {
    let mut entries: Vec<String> = Vec::new();
    for line in USAGE.lines() {
        if let Some(entry) = line.strip_prefix("  rtk ") {
            entries.push(entry.to_string());
        } else if line.starts_with("    ") {
            if let Some(last) = entries.last_mut() {
                last.push(' ');
                last.push_str(line);
            }
        }
    }
    let mut flags = Vec::new();
    let mut matched = false;
    for entry in &entries {
        let words: Vec<&str> = entry
            .split_whitespace()
            .take_while(|t| !t.starts_with(['<', '[', '-', '…']))
            .collect();
        let selects = words.len() <= argv.len()
            && words.iter().zip(argv).all(|(w, a)| w.split('|').any(|alt| alt == a));
        if !selects {
            continue;
        }
        matched |= !words.is_empty();
        for token in entry.split_whitespace() {
            if let Some(name) = token.trim_start_matches('[').strip_prefix("--") {
                flags.push(name.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()).to_string());
            }
        }
    }
    matched.then_some(flags)
}

/// Installs the process logger from `--log-level <error|warn|info|debug>`
/// and `--log-file <path>` (stderr by default). Every command takes both:
/// the serving commands emit structured events for the tier's health
/// changes, and any command's failure is logged through the same sink.
fn init_logging(args: &Parsed) -> Result<(), String> {
    let level = match args.get("log-level") {
        None => rtk_obs::Level::Info,
        Some(s) => rtk_obs::Level::parse(s)
            .ok_or_else(|| format!("--log-level: expected error|warn|info|debug, got {s:?}"))?,
    };
    rtk_obs::log::init(level, args.get("log-file").map(Path::new))
}

/// True when `path` should use the TSV edge-list format.
pub(crate) fn is_tsv(path: &str) -> bool {
    let lower = path.to_ascii_lowercase();
    [".tsv", ".txt", ".edges"].iter().any(|ext| lower.ends_with(ext))
}

/// Loads a graph, picking the format from the extension.
pub(crate) fn load_graph(path: &str) -> Result<DiGraph, String> {
    if !Path::new(path).exists() {
        return Err(format!("graph file {path:?} does not exist"));
    }
    let result = if is_tsv(path) {
        rtk_graph::io::read_edge_list_path(path, None, DanglingPolicy::SelfLoop)
    } else {
        rtk_graph::io::read_binary_path(path)
    };
    result.map_err(|e| format!("failed to load {path:?}: {e}"))
}

/// Saves a graph, picking the format from the extension.
pub(crate) fn save_graph(graph: &DiGraph, path: &str) -> Result<(), String> {
    let result = if is_tsv(path) {
        std::fs::File::create(path)
            .map_err(rtk_graph::GraphError::Io)
            .and_then(|f| rtk_graph::io::write_edge_list(graph, f))
    } else {
        rtk_graph::io::write_binary_path(graph, path)
    };
    result.map_err(|e| format!("failed to write {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert!(is_tsv("graph.tsv"));
        assert!(is_tsv("GRAPH.TXT"));
        assert!(is_tsv("a/b/c.edges"));
        assert!(!is_tsv("graph.rtkg"));
        assert!(!is_tsv("graph"));
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = dispatch(&["frobnicate".into()]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("usage:"));
    }

    #[test]
    fn no_command_mentions_usage() {
        assert!(dispatch(&[]).unwrap_err().contains("usage:"));
    }

    #[test]
    fn help_succeeds() {
        dispatch(&["help".into()]).unwrap();
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Every flag each command reads, as the code spells it. `USAGE` must
    /// document exactly these (plus the global flags), and the parser must
    /// accept each of them.
    const READ_FLAGS: &[(&str, &[&str])] = &[
        ("generate", &["out"]),
        ("stats", &[]),
        ("index build", &["out", "max-k", "hubs", "omega", "threads", "shards"]),
        ("index info", &[]),
        ("shard split", &["shards", "balance", "graph", "out"]),
        ("shard merge", &["out"]),
        ("shard info", &[]),
        ("shard stitch", &["index", "out"]),
        ("query", &["node", "k", "update", "strict", "approximate", "threads"]),
        ("topk", &["node", "k", "early", "alpha", "threads"]),
        ("pmpn", &["node", "top", "alpha", "threads"]),
        ("convert", &[]),
        (
            "serve",
            &[
                "index",
                "graph",
                "addr",
                "workers",
                "query-threads",
                "max-frame-mib",
                "max-connections",
                "max-inflight",
                "persist-dir",
                "auth-token",
                "metrics-addr",
                "update-log",
                "chaos",
                "shard-only",
                "shard",
            ],
        ),
        (
            "router",
            &[
                "backends",
                "addr",
                "workers",
                "max-connections",
                "max-frame-mib",
                "max-inflight",
                "auth-token",
                "timeout",
                "hedge-quantile",
                "hedge-min-delay-ms",
                "probe-interval-ms",
                "health-seed",
                "metrics-addr",
            ],
        ),
        ("remote query", &["node", "k", "update", "trace"]),
        ("remote topk", &["node", "k", "early"]),
        ("remote batch", &["nodes", "k", "pipeline"]),
        ("remote add-edge", &["from", "to", "weight"]),
        ("remote remove-edge", &["from", "to"]),
        ("remote persist", &["out"]),
        ("remote stats", &["json"]),
        ("remote ping", &[]),
        ("remote shutdown", &[]),
        ("log info", &["limit"]),
        ("log replay", &["index", "log", "out"]),
    ];

    #[test]
    fn every_command_accepts_exactly_the_flags_it_documents() {
        for &(command, read) in READ_FLAGS {
            let words = argv(command);
            let mut expected: Vec<&str> = read.to_vec();
            expected.extend(["log-file", "log-level"]);
            if words[0] == "remote" {
                expected.extend(["addr", "auth-token", "timeout"]);
            }
            expected.sort_unstable();
            expected.dedup();
            let mut documented = documented_flags(&words).expect("command is documented");
            documented.sort_unstable();
            documented.dedup();
            assert_eq!(documented, expected, "rtk {command}");
            for flag in &documented {
                let mut with_flag = words.clone();
                with_flag.push(format!("--{flag}"));
                crate::args::check_flags(&with_flag, &documented)
                    .unwrap_or_else(|e| panic!("rtk {command} --{flag}: {e}"));
            }
        }
    }

    #[test]
    fn unknown_and_retired_flags_are_rejected_by_name() {
        for (command, flag) in [
            ("query g.rtkg g.rtki --node 0 --k 2 --bogus-flag 5", "--bogus-flag"),
            ("query g.rtkg g.rtki --node 0 --k 2 --approx 1e-4", "--approx"),
            ("remote query --node 0 --approx=1e-4", "--approx"),
            ("index info g.rtki --out x", "--out"),
        ] {
            let err = dispatch(&argv(command)).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{command}: {err}");
        }
        // An unknown subcommand is still reported as such, not as a flag.
        let err = dispatch(&argv("index frobnicate --out x")).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn graph_round_trip_via_helpers() {
        let g = rtk_datasets::toy_graph();
        let dir = std::env::temp_dir().join("rtk_cli_test_mod");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["toy.tsv", "toy.rtkg"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            save_graph(&g, path).unwrap();
            let back = load_graph(path).unwrap();
            assert_eq!(back, g, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_fails_cleanly() {
        let err = load_graph("/definitely/not/here.tsv").unwrap_err();
        assert!(err.contains("does not exist"));
    }
}
