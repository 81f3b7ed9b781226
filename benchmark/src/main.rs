//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload routed_k10 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` it runs the workload untraced and reports the
//! end-to-end metrics; with `--trace 1` it runs the traced per-layer pass
//! instead. Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the full result,
//! with provenance (and the spans, when traced), is written under
//! `.bench_out/`.

mod oracle;
mod stats;
mod timed;
mod trace;
mod traced;
mod workload;

use rtk_obs::Json;
use stats::Summary;
use std::path::{Path, PathBuf};
use workload::Workload;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one set-up, print its seconds and exit (see [`timed::SETUP_ONLY`]).
    setup_only: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "error: {msg}\nusage: rtk-benchmark --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage(&format!("bad {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            timed::SETUP_ONLY => setup_only = value == "1",
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => {
            Args { workload, seed, seconds, trace, setup_only }
        }
        _ => usage("--workload, --seed, --seconds (> 0) and --trace are all required"),
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Pushes a timing as four metrics: `<name>` (the median), `<name>.tail`,
/// `<name>.total` and `<name>.count`.
pub fn push_timing(out: &mut Vec<Metric>, name: &str, unit: &'static str, s: Option<Summary>) {
    let s =
        s.unwrap_or(Summary { count: 0, p50: 0.0, tail_per_mille: 1000, tail: 0.0, total: 0.0 });
    out.push(metric(name, s.p50, unit));
    out.push(metric(format!("{name}.tail"), s.tail, unit));
    out.push(metric(format!("{name}.total"), s.total, unit));
    out.push(metric(format!("{name}.count"), s.count as f64, "count"));
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a 64 over the repository's source files (the checkout the
/// benchmark runs in need not be a git repository).
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        walk(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", rtk_core::fnv1a64(&bytes))
}

/// The git revision when the checkout is a git repository.
fn git_revision(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).ok().map(|s| s.trim().into()),
        None => Some(head.into()),
    }
}

fn provenance(args: &Args, root: &Path) -> Json {
    let w = args.workload;
    Json::Obj(vec![
        ("git_revision".into(), git_revision(root).map_or(Json::Null, Json::Str)),
        ("source_fnv1a64".into(), Json::Str(source_digest(root))),
        ("nproc".into(), Json::U64(workload::nproc() as u64)),
        (
            "build_profile".into(),
            Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        (
            "graph".into(),
            Json::Str(format!(
                "rmat:{}:{}:{} (0.57,0.19,0.19,0.05)",
                w.nodes,
                w.edges,
                workload::GRAPH_SEED
            )),
        ),
        ("workload".into(), Json::Str(w.name.into())),
        ("workload_seed".into(), Json::U64(args.seed)),
        ("seconds".into(), Json::U64(args.seconds)),
        ("clients".into(), Json::U64(w.clients as u64)),
        ("query_threads".into(), Json::U64(workload::nproc() as u64)),
        ("tier_workers".into(), Json::U64(workload::nproc() as u64)),
        ("k".into(), Json::U64(w.k as u64)),
        ("traced".into(), Json::Bool(args.trace)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::F64(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// End-to-end metrics of an untraced run.
fn end_to_end(w: &Workload, m: &timed::Measured) -> Vec<Metric> {
    let reads = Summary::of(&m.reads_ms, stats::tail_per_mille(w.min_reads))
        .expect("the timed phase completes min_reads reads");
    println!(
        "{}: {} reads in {:.3} s timed; read tail is {} (at least {} reads)",
        w.name,
        reads.count,
        m.timed_s,
        reads.tail_label(),
        w.min_reads
    );
    if let Some(writes) = Summary::of(&m.writes_ms, stats::tail_per_mille(w.min_writes)) {
        println!(
            "{}: {} edge updates: write_p50_ms {:.4} ms, write_tail_ms ({}) {:.4} ms",
            w.name,
            writes.count,
            writes.p50,
            writes.tail_label(),
            writes.tail
        );
    }
    vec![
        metric("setup_s", stats::median_of(&m.setup_s), "s"),
        metric("read_p50_ms", reads.p50, "ms"),
        metric("read_tail_ms", reads.tail, "ms"),
        metric("read_qps", reads.count as f64 / m.timed_s, "1/s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    if args.setup_only {
        let (engine, tier, seconds) = timed::set_up_once(w);
        if let Some(tier) = tier {
            tier.stop();
        }
        drop(engine);
        println!("{seconds}");
        return;
    }
    let root = std::env::current_dir().expect("working directory");
    let prov = provenance(&args, &root);
    println!("provenance: {}", prov.render());

    let (attempted, failed, metrics, extra) = if args.trace {
        let t = traced::run(w, args.seed);
        (t.attempted, t.failed, t.metrics, t.trace)
    } else {
        let m = timed::run(w, args.seed, args.seconds);
        let metrics = end_to_end(w, &m);
        println!(
            "{}: {} attempted, {} errored, oracle {} checks / {} mismatches, \
             routed vs in-process {} compared / {} differed",
            w.name,
            m.attempted,
            m.errors,
            m.oracle.checks,
            m.oracle.mismatches,
            m.compared,
            m.differed
        );
        let raw = Json::Obj(vec![
            ("setup_s".into(), Json::Arr(m.setup_s.iter().map(|&x| Json::F64(x)).collect())),
            ("timed_s".into(), Json::F64(m.timed_s)),
            ("oracle_checks".into(), Json::U64(m.oracle.checks)),
            ("oracle_mismatches".into(), Json::U64(m.oracle.mismatches)),
        ]);
        (m.attempted, m.failed, metrics, raw)
    };
    let ratio = stats::error_ratio(failed, attempted);
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<32} {:>16} -", "error_ratio", ratio.map_or("n/a".into(), |r| format!("{r:.6}")));

    let result = Json::Obj(vec![
        ("provenance".into(), prov),
        ("error_ratio".into(), ratio.map_or(Json::Null, Json::F64)),
        ("metrics".into(), metrics_json(&metrics)),
        ("detail".into(), extra),
    ]);
    let dir = root.join(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-{}.json",
        w.name,
        args.seed,
        if args.trace { "trace" } else { "timed" }
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, result.render()))
    {
        eprintln!("warning: could not write {}: {e}", file.display());
    }

    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(ratio == Some(0.0))),
        ("attempted".into(), Json::U64(attempted)),
        ("failed".into(), Json::U64(failed)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{}", last.render());
}
