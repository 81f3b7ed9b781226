//! The traced run: spans and counts around the benchmark's own calls into
//! each crate's public functions, measured from outside the program.
//!
//! Work the facade does internally is re-driven through each layer's own
//! public entry point — `proximity_to`, `query_shard_with_pmpn` with the
//! solved vector, `commit_states`, `affected_set`, the wire codec — and the
//! same operations run through a routed tier and a single server beside the
//! in-process engine, so every layer's share is measured, not inferred.
//! Every workload drives every layer this way: a read-only workload also
//! applies a few edge updates before its reads, so the write-side layers
//! have samples on its graph too. End-to-end metrics never come from here.

use crate::stats::Summary;
use crate::timed::{warm_up, Tier};
use crate::trace::{self_times, Recorder};
use crate::workload::{
    build_engine, graph, nproc, read_options, Stratified, Update, UpdateStream, Workload,
    STREAM_READS,
};
use crate::{metric, push_timing, Metric};
use rtk_core::ReverseTopkEngine;
use rtk_graph::{NodeId, TransitionMatrix};
use rtk_index::update::affected_set;
use rtk_index::ReverseIndex;
use rtk_obs::Json;
use rtk_query::{QueryEngine, QueryStats};
use rtk_rwr::{proximity_to, RwrParams};
use rtk_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame,
};
use rtk_server::{Client, Request, Response, Server, ServerConfig, StatsSnapshot};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub trace: Json,
}

#[derive(Clone, Copy)]
enum Op {
    Read(u32),
    Write(Update),
}

/// An answer as bits, for comparing tiers: nodes and proximity bits.
type Answer = (Vec<u32>, Vec<u64>);

/// Per-read and per-write counts summed over the traced in-process pass.
#[derive(Default)]
struct Counts {
    reads: u64,
    writes: u64,
    stats: QueryStats,
    pmpn_iterations: u64,
    affected: u64,
    recomputed_states: u64,
    recomputed_hubs: u64,
    frame_bytes: u64,
    frames: u64,
}

/// Captures the request frames a real client sends, so the codec is timed
/// on the workload's own bytes. Capturing also keeps the benchmark from
/// spelling out a read request's fields, some of which (the approximate
/// knob) ROADMAP plans to delete.
struct FrameTap {
    client: Client,
    peer: TcpStream,
}

impl FrameTap {
    fn new() -> FrameTap {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind tap");
        let client = Client::connect(listener.local_addr().expect("tap addr")).expect("tap");
        let (peer, _) = listener.accept().expect("tap accept");
        FrameTap { client, peer }
    }

    /// The payload a client sends for `op` (never answered).
    fn capture(&mut self, op: Op, k: usize, update: bool) -> Vec<u8> {
        match op {
            Op::Read(q) => drop(self.client.submit_reverse_topk(q, k as u32, update)),
            Op::Write(u) => drop(self.client.submit(&request_of(u))),
        }
        read_frame(&mut self.peer, u32::MAX).expect("captured frame").1
    }
}

fn request_of(u: Update) -> Request {
    match u {
        Update::Add { from, to, weight } => Request::AddEdge { from, to, weight },
        Update::Remove { from, to } => Request::RemoveEdge { from, to },
    }
}

fn bits(nodes: &[u32], proximities: &[f64]) -> Answer {
    (nodes.to_vec(), proximities.iter().map(|p| p.to_bits()).collect())
}

/// The traced operations: for `update_mix`, its interleaved stream; for a
/// read-only workload, reads only (its few updates run before them).
fn ops(w: &Workload, engine: &ReverseTopkEngine, seed: u64, updates: &mut UpdateStream) -> Vec<Op> {
    let mut reads = Stratified::queries(engine.graph(), w.traced_reads, seed, STREAM_READS);
    let mut out = Vec::new();
    let (mut r, mut wr) = (0, 0);
    while r < w.traced_reads || (w.reads_per_write > 0 && wr < w.traced_writes) {
        if w.reads_per_write > 0 && out.len().is_multiple_of(w.reads_per_write + 1) {
            out.push(Op::Write(updates.next_update()));
            wr += 1;
        } else {
            out.push(Op::Read(reads.next_node()));
            r += 1;
        }
    }
    out
}

fn snapshot(engine: &ReverseTopkEngine) -> Vec<u8> {
    let mut bytes = Vec::new();
    engine.save(&mut bytes).expect("in-memory snapshot");
    bytes
}

fn restore(bytes: &[u8]) -> ReverseTopkEngine {
    ReverseTopkEngine::load(bytes).expect("snapshot loads")
}

/// Plain facade calls, no spans: the untraced side of the overhead figure.
fn untraced_pass(engine: &mut ReverseTopkEngine, ops: &[Op], w: &Workload) -> f64 {
    let opts = read_options(w.reads_per_write > 0);
    let t = Instant::now();
    for op in ops {
        match *op {
            Op::Read(q) => drop(std::hint::black_box(engine.query_with(NodeId(q), w.k, &opts))),
            Op::Write(u) => drop(std::hint::black_box(u.apply(engine))),
        }
    }
    t.elapsed().as_secs_f64()
}

/// One traced edge update: the affected set re-driven, then the facade.
fn traced_write(
    rec: &mut Recorder,
    engine: &mut ReverseTopkEngine,
    op: u64,
    u: Update,
    c: &mut Counts,
) -> bool {
    let root = rec.begin("op.in_process", op, None);
    let affected = rec.time("index.affected_set", op, Some(root), || {
        affected_set(engine.graph(), u.source()).len()
    });
    let effect = rec.time("core.add_edge", op, Some(root), || u.apply(engine));
    rec.end(root);
    c.writes += 1;
    c.affected += affected as u64;
    match effect {
        Ok(e) => {
            c.recomputed_states += e.recomputed_states as u64;
            c.recomputed_hubs += e.recomputed_hubs as u64;
            true
        }
        Err(_) => false,
    }
}

/// One traced read: PMPN, the screen of every shard with the solved vector
/// and the commit re-driven first (so an update-mode read sees the state
/// the facade call will see), then the facade call itself.
#[allow(clippy::too_many_arguments)]
fn traced_read(
    rec: &mut Recorder,
    engine: &mut ReverseTopkEngine,
    session: &QueryEngine,
    scratch: &mut ReverseIndex,
    op: u64,
    q: u32,
    w: &Workload,
    c: &mut Counts,
) -> Option<Answer> {
    let opts = read_options(w.reads_per_write > 0);
    let index = engine.index();
    let alpha = index.config().alpha();
    let params = RwrParams { alpha, threads: nproc(), ..opts.rwr };
    let transition = TransitionMatrix::new(engine.graph());
    let root = rec.begin("op.in_process", op, None);
    let (pmpn, report) =
        rec.time("rwr.pmpn", op, Some(root), || proximity_to(&transition, q, &params));
    let commits = rec.time("query.screen", op, Some(root), || {
        let mut commits = Vec::new();
        for shard in index.shards() {
            let (_, shard_commits, _) = session
                .query_shard_with_pmpn(
                    &transition,
                    index.hub_matrix(),
                    alpha,
                    index.max_k(),
                    shard,
                    q,
                    w.k,
                    &opts,
                    Some(&pmpn),
                    false,
                )
                .expect("re-driven screen");
            commits.extend(shard_commits);
        }
        commits
    });
    rec.time("index.commit", op, Some(root), || scratch.commit_states(commits));
    let result =
        rec.time("core.query", op, Some(root), || engine.query_with(NodeId(q), w.k, &opts));
    rec.end(root);
    c.pmpn_iterations += u64::from(report.iterations);
    let r = result.ok()?;
    c.reads += 1;
    let s = r.stats();
    c.stats.candidates += s.candidates;
    c.stats.hits += s.hits;
    c.stats.pruned_by_lower_bound += s.pruned_by_lower_bound;
    c.stats.refined_nodes += s.refined_nodes;
    c.stats.refine_iterations += s.refine_iterations;
    c.stats.exact_fallbacks += s.exact_fallbacks;
    Some(bits(r.nodes(), r.proximities()))
}

/// Sends every op through `client` under a span named `name`; returns the
/// answers of reads (`None` on error) and whether each write succeeded.
fn client_pass(
    rec: &mut Recorder,
    client: &mut Client,
    name: &'static str,
    ops: &[Op],
    w: &Workload,
    mut tap: Option<(&mut FrameTap, &mut Counts)>,
) -> Vec<Option<Answer>> {
    let update = w.reads_per_write > 0;
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let request = tap.as_mut().map(|(t, _)| t.capture(*op, w.k, update));
        let root = rec.begin(if request.is_some() { "op.server" } else { "op.router" }, id, None);
        let response = match *op {
            Op::Read(q) => rec
                .time(name, id, Some(root), || client.reverse_topk(q, w.k as u32, update))
                .ok()
                .map(Response::ReverseTopk),
            Op::Write(u) => rec
                .time(name, id, Some(root), || match u {
                    Update::Add { from, to, weight } => client.add_edge(from, to, weight),
                    Update::Remove { from, to } => client.remove_edge(from, to),
                })
                .ok()
                .map(Response::Updated),
        };
        if let (Some(req_bytes), Some(resp), Some((_, c))) = (&request, &response, tap.as_mut()) {
            let req = rec.time("server.wire_decode", id, Some(root), || decode_request(req_bytes));
            let req = req.expect("captured request decodes").1;
            let (re_req, resp_bytes) = rec.time("server.wire_encode", id, Some(root), || {
                (encode_request(&req), encode_response(resp))
            });
            let back =
                rec.time("server.wire_decode", id, Some(root), || decode_response(&resp_bytes));
            assert_eq!(&re_req, req_bytes, "request codec round-trips");
            assert_eq!(back.as_ref().ok(), Some(resp), "response codec round-trips");
            c.frame_bytes += (req_bytes.len() + resp_bytes.len()) as u64;
            c.frames += 1;
        }
        rec.end(root);
        out.push(match response {
            Some(Response::ReverseTopk(r)) => Some(bits(&r.nodes, &r.proximities)),
            Some(_) => Some((Vec::new(), Vec::new())),
            None => None,
        });
    }
    out
}

pub fn run(w: &Workload, seed: u64) -> Traced {
    let mut rec = Recorder::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let g = rec.time("graph.generate", 0, None, || graph(w));
    let mut engine = rec.time("index.build", 0, None, || build_engine(g));
    let index_bytes = engine.index().current_bytes();
    let hubs = engine.index_stats().hub_count;
    let mut updates = UpdateStream::new(engine.graph(), seed);
    let mut counts = Counts::default();

    // A read-only workload's updates run first, in-process, so every tier
    // below reads the same graph. Their op ids sit apart from the traced
    // ops', which every tier replays.
    let read_only = w.reads_per_write == 0;
    let first_op = 1_000_000u64;
    if read_only {
        for i in 0..w.traced_writes {
            let u = updates.next_update();
            attempted += 1;
            failed += u64::from(!traced_write(
                &mut rec,
                &mut engine,
                first_op + i as u64,
                u,
                &mut counts,
            ));
        }
    }
    let ops = ops(w, &engine, seed, &mut updates);
    let pristine = (!read_only).then(|| snapshot(&engine));

    warm_up(&mut engine, w, seed);
    let untraced_s = untraced_pass(&mut engine, &ops, w);
    if let Some(bytes) = &pristine {
        engine = restore(bytes);
    }

    // Traced in-process pass.
    let session = QueryEngine::new(engine.index());
    let mut scratch = engine.index().clone();
    let t = Instant::now();
    let mut in_process = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        attempted += 1;
        in_process.push(match *op {
            Op::Read(q) => traced_read(
                &mut rec,
                &mut engine,
                &session,
                &mut scratch,
                i as u64,
                q,
                w,
                &mut counts,
            ),
            Op::Write(u) => traced_write(&mut rec, &mut engine, i as u64, u, &mut counts)
                .then(|| (Vec::new(), Vec::new())),
        });
    }
    let traced_s = t.elapsed().as_secs_f64();
    failed += in_process.iter().filter(|a| a.is_none()).count() as u64;
    drop(scratch);

    // Routed tier, then a single server, on the same starting state.
    let mut routed_engine = match &pristine {
        Some(bytes) => restore(bytes),
        None => engine,
    };
    // Every tier solves with the in-process thread count, so the overhead
    // figures hold wire, dispatch and fan-out only.
    let tier = Tier::start(&mut routed_engine, nproc());
    let mut client = Client::connect(tier.router.addr()).expect("router client");
    let routed = client_pass(&mut rec, &mut client, "router.request", &ops, w, None);
    let router_stats = client.stats().expect("router stats");
    drop(client);
    tier.stop();

    let served_engine = match &pristine {
        Some(bytes) => restore(bytes),
        None => routed_engine,
    };
    let config =
        ServerConfig { workers: nproc(), query_threads: nproc(), ..ServerConfig::default() };
    let server = Server::bind(served_engine, "127.0.0.1:0", config).expect("bind server").spawn();
    let mut client = Client::connect(server.addr()).expect("server client");
    let mut tap = FrameTap::new();
    let served = client_pass(
        &mut rec,
        &mut client,
        "server.request",
        &ops,
        w,
        Some((&mut tap, &mut counts)),
    );
    let server_stats = client.stats().expect("server stats");
    client.shutdown().expect("server shutdown");
    server.join().expect("server exits cleanly");

    for (tier_answers, label) in [(&routed, "routed"), (&served, "served")] {
        let differ = tier_answers.iter().zip(&in_process).filter(|(a, b)| a != b).count();
        if differ > 0 {
            println!("{}: {differ} {label} answer(s) differ from in-process", w.name);
        }
        attempted += ops.len() as u64;
        failed += differ as u64;
    }

    let mut metrics = layer_metrics(&rec, &counts);
    metrics.push(metric("index.bytes", index_bytes as f64, "bytes"));
    metrics.push(metric("index.hubs", hubs as f64, "count"));
    let errors = |s: &StatsSnapshot| (s.protocol_errors, s.engine_errors);
    let (p_router, e_router) = errors(&router_stats);
    let (p_server, e_server) = errors(&server_stats);
    metrics.push(metric("server.protocol_errors", (p_router + p_server) as f64, "count"));
    metrics.push(metric("server.engine_errors", (e_router + e_server) as f64, "count"));
    metrics.push(metric("router.hedged_requests", router_stats.hedged_requests as f64, "count"));
    metrics.push(metric("router.failovers", router_stats.failovers as f64, "count"));
    metrics.push(metric("router.inflight_peak", router_stats.inflight_peak as f64, "count"));

    // Tracing overhead: the traced pass's wall time beyond the untraced
    // pass, less the re-driven layer work the untraced pass never does.
    let redriven: f64 = ["rwr.pmpn", "query.screen", "index.commit", "index.affected_set"]
        .iter()
        .flat_map(|n| {
            rec.spans()
                .iter()
                .filter(move |s| s.name == *n && s.op < first_op)
                .map(|s| s.duration() as f64 / 1e9)
        })
        .sum();
    let overhead_ms = (traced_s - untraced_s - redriven) * 1e3;
    let (unattributed_ms, worst_ms) = unattributed(&rec);
    metrics.push(metric("trace.overhead_ms", overhead_ms, "ms"));
    metrics.push(metric("trace.unattributed_ms", unattributed_ms, "ms"));
    println!(
        "{}: tracing overhead {overhead_ms:.3} ms over {} in-process ops; layer self times \
         sum to each traced op's duration within {worst_ms:.4} ms (total {unattributed_ms:.4} \
         ms): {} the tracing overhead",
        w.name,
        ops.len(),
        if unattributed_ms <= overhead_ms.abs() { "within" } else { "beyond" }
    );
    let trace = Json::Obj(vec![
        ("untraced_pass_s".into(), Json::F64(untraced_s)),
        ("traced_pass_s".into(), Json::F64(traced_s)),
        ("trace".into(), rec.to_json()),
    ]);
    Traced { attempted, failed, metrics, trace }
}

/// Per op root: its self time is the part of its duration no layer span
/// covers. Returns the total over roots and the largest single one, in ms.
fn unattributed(rec: &Recorder) -> (f64, f64) {
    let own = self_times(rec.spans());
    let roots = rec
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent.is_none() && s.name.starts_with("op."));
    let gaps: Vec<f64> = roots.map(|(_, &o)| o as f64 / 1e6).collect();
    (gaps.iter().sum(), gaps.iter().copied().fold(0.0, f64::max))
}

/// Per-op differences `a − b` of two span names, over the ops that also
/// have a span named `only`.
fn differences(rec: &Recorder, a: &str, b: &str, only: &str) -> Vec<f64> {
    let (a, b, only) = (rec.by_op_ms(a), rec.by_op_ms(b), rec.by_op_ms(only));
    a.iter()
        .filter(|(op, _)| only.contains_key(op))
        .filter_map(|(op, x)| b.get(op).map(|y| x - y))
        .collect()
}

fn layer_metrics(rec: &Recorder, c: &Counts) -> Vec<Metric> {
    let one = |name: &str| rec.durations_ms(name).first().copied().unwrap_or(0.0) / 1e3;
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    let mut m = vec![
        metric("graph.generate_s", one("graph.generate"), "s"),
        metric("index.build_s", one("index.build"), "s"),
    ];
    let timing = |m: &mut Vec<Metric>, name: &str, samples: Vec<f64>, unit: &'static str| {
        push_timing(m, name, unit, Summary::of(&samples, None));
    };
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    timing(&mut m, "index.affected_set_ms", rec.durations_ms("index.affected_set"), "ms");
    timing(
        &mut m,
        "index.recompute_ms",
        differences(rec, "core.add_edge", "index.affected_set", "core.add_edge"),
        "ms",
    );
    timing(&mut m, "index.commit_ms", rec.durations_ms("index.commit"), "ms");
    m.push(metric("index.affected_states", per(c.affected as f64, c.writes), "count/op"));
    m.push(metric(
        "index.recomputed_states",
        per(c.recomputed_states as f64, c.writes),
        "count/op",
    ));
    m.push(metric("index.recomputed_hubs", per(c.recomputed_hubs as f64, c.writes), "count/op"));
    timing(&mut m, "rwr.pmpn_ms", rec.durations_ms("rwr.pmpn"), "ms");
    m.push(metric("rwr.pmpn_iterations", per(c.pmpn_iterations as f64, c.reads), "count/op"));
    timing(&mut m, "query.screen_ms", rec.durations_ms("query.screen"), "ms");
    let s = &c.stats;
    for (name, v) in [
        ("query.candidates", s.candidates as f64),
        ("query.hits", s.hits as f64),
        ("query.pruned", s.pruned_by_lower_bound as f64),
        ("query.refined_nodes", s.refined_nodes as f64),
        ("query.refine_iterations", s.refine_iterations as f64),
        ("query.exact_fallbacks", s.exact_fallbacks as f64),
    ] {
        m.push(metric(name, per(v, c.reads), "count/op"));
    }
    m.push(metric("query.hit_ratio", s.hits as f64 / s.candidates.max(1) as f64, "ratio"));
    timing(&mut m, "core.query_ms", rec.durations_ms("core.query"), "ms");
    timing(&mut m, "core.add_edge_ms", rec.durations_ms("core.add_edge"), "ms");
    let per_op = |name: &str| rec.by_op_ms(name).into_values().collect::<Vec<f64>>();
    timing(&mut m, "server.wire_encode_us", us(per_op("server.wire_encode")), "us");
    timing(&mut m, "server.wire_decode_us", us(per_op("server.wire_decode")), "us");
    m.push(metric("server.frame_bytes", per(c.frame_bytes as f64, c.frames), "bytes/op"));
    // Over reads only: the ops with a `core.query` span.
    let overhead = |a, b| differences(rec, a, b, "core.query");
    timing(&mut m, "server.overhead_ms", overhead("server.request", "core.query"), "ms");
    timing(&mut m, "router.overhead_ms", overhead("router.request", "server.request"), "ms");
    m
}
