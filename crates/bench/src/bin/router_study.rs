//! Multi-process serving study — per-shard backends behind a fan-out
//! router, on loopback.
//!
//! Builds one sharded index, serves it two ways — a single in-process
//! `rtk-server`, and `S` shard-only backends (`S` ∈ 1/2/4) behind an
//! `rtk-server` router with concurrent fan-out — and drives both with the
//! same frozen reverse top-k workload from `M` concurrent client threads
//! (`M` ∈ 1/2/4). Asserts every routed answer equals the single-process
//! answer (the determinism contract — processes may only change wall
//! time), and reports what routing costs per backend count. A final HA
//! scenario runs two replicas per shard and kills one
//! replica mid-sweep, asserting transparent failover (answers unchanged,
//! `failovers ≥ 1`). Writes the machine-readable `BENCH_router.json`,
//! schema-aligned with `BENCH_serve.json`
//! (`p50_seconds`/`p95_seconds`/`p99_seconds`).
//!
//! ```sh
//! cargo run --release -p rtk-bench --bin router_study            # full
//! cargo run --release -p rtk-bench --bin router_study -- --quick
//! ```

use rtk_bench::{
    banner, graph_json, graph_summary, obj, print_table, query_workload, write_json_artifact,
};
use rtk_core::{ReverseTopkEngine, ShardEngine};
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::DiGraph;
use rtk_index::ShardSlice;
use rtk_obs::Json;
use rtk_server::{Client, Router, RouterConfig, Server, ServerConfig, ServerHandle};
use rtk_sparse::LatencyHistogram;
use std::time::Instant;

const K: u32 = 20;
const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];
const BACKEND_COUNTS: [usize; 3] = [1, 2, 4];
const OUT_PATH: &str = "BENCH_router.json";

fn build_engine(graph: &DiGraph, shards: usize) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph.clone())
        .max_k(K as usize)
        .hubs_per_direction(25)
        .shards(shards)
        .build()
        .expect("engine build")
}

/// One client-fan-out sweep against `addr`; returns (seconds, histogram).
fn drive(addr: std::net::SocketAddr, clients: usize, workload: &[u32]) -> (f64, LatencyHistogram) {
    let t0 = Instant::now();
    let hist = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for c in 0..clients {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connect");
                let mut hist = LatencyHistogram::new();
                for &q in workload.iter().skip(c).step_by(clients) {
                    let t = Instant::now();
                    let r = client.reverse_topk(q, K, false).expect("reverse_topk");
                    hist.record(t.elapsed().as_secs_f64());
                    assert_eq!(r.query, q);
                }
                hist
            }));
        }
        let mut merged = LatencyHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("client thread"));
        }
        merged
    });
    (t0.elapsed().as_secs_f64(), hist)
}

fn main() {
    let args = rtk_bench::Args::parse();
    let (nodes, edges, requests) = if args.quick {
        (3_000usize, 18_000usize, args.workload(40, 40))
    } else {
        (30_000usize, 180_000usize, args.workload(40, 200))
    };
    let seed = 47u64;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let max_clients = *CLIENT_COUNTS.last().unwrap_or(&1);

    banner(
        "Router study",
        "concurrent fan-out over per-shard backends vs. one process (RTKWIRE1 v9)",
        &format!("rmat n={nodes} m={edges} seed={seed}"),
        &format!("{requests} requests per sweep, k={K}, {cores} core(s) available"),
    );

    let graph = rmat(&RmatConfig::new(nodes, edges, seed)).expect("graph generation");
    println!("graph: {}", graph_summary(&graph));
    let workload = query_workload(nodes, requests, 0x0407);

    // Reference tier: one process holding the whole index.
    let single = Server::bind(
        build_engine(&graph, 1),
        "127.0.0.1:0",
        ServerConfig { workers: cores.max(max_clients) + 1, ..Default::default() },
    )
    .expect("bind single")
    .spawn();

    // Reference answers (also pins routed answers below).
    let reference: Vec<Vec<u32>> = {
        let mut client = Client::connect(single.addr()).expect("reference client");
        workload
            .iter()
            .map(|&q| client.reverse_topk(q, K, false).expect("ref").nodes)
            .collect()
    };

    let mut json_tiers = Vec::new();
    let mut rows = Vec::new();

    // Single-process rows first (backends = 0 marks the reference tier).
    let mut single_json = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let (secs, hist) = drive(single.addr(), clients, &workload);
        let qps = requests as f64 / secs;
        let (p50, p95, p99) = hist.percentiles();
        rows.push(vec![
            "single".into(),
            clients.to_string(),
            format!("{secs:.3}"),
            format!("{qps:.1}"),
            format!("{p50:.5}"),
            format!("{p99:.5}"),
        ]);
        single_json.push(obj(vec![
            ("clients", Json::U64(clients as u64)),
            ("total_seconds", Json::F64(secs)),
            ("queries_per_second", Json::F64(qps)),
            ("p50_seconds", Json::F64(p50)),
            ("p95_seconds", Json::F64(p95)),
            ("p99_seconds", Json::F64(p99)),
        ]));
    }
    json_tiers.push(obj(vec![
        ("tier", Json::Str("single".into())),
        ("backends", Json::U64(0)),
        ("sweep", Json::Arr(single_json)),
    ]));

    // Routed tiers: S shard-only backends, S ∈ BACKEND_COUNTS.
    for &backends in &BACKEND_COUNTS {
        let sharded = build_engine(&graph, backends);
        let backend_handles: Vec<ServerHandle> = (0..backends)
            .map(|sid| {
                let slice = ShardSlice::from_index(sharded.index(), sid).expect("slice");
                let engine = ShardEngine::from_parts(graph.clone(), slice).expect("shard engine");
                Server::bind_shard(
                    engine,
                    "127.0.0.1:0",
                    // Wire v4 dispatches frames, not connections, to the
                    // workers — no per-connection worker budget needed.
                    ServerConfig { workers: cores.max(2), ..Default::default() },
                )
                .expect("bind backend")
                .spawn()
            })
            .collect();
        let addrs: Vec<String> = backend_handles.iter().map(|h| h.addr().to_string()).collect();
        let router = Router::bind(
            &addrs,
            "127.0.0.1:0",
            RouterConfig { workers: cores.max(max_clients) + 1, ..Default::default() },
        )
        .expect("bind router")
        .spawn();

        // Determinism gate: routed answers equal single-process answers.
        {
            let mut client = Client::connect(router.addr()).expect("verify client");
            for (i, &q) in workload.iter().take(20).enumerate() {
                let r = client.reverse_topk(q, K, false).expect("routed query");
                assert_eq!(r.nodes, reference[i], "routed answer diverged (q={q})");
            }
        }

        let mut tier_json = Vec::new();
        for &clients in &CLIENT_COUNTS {
            let (secs, hist) = drive(router.addr(), clients, &workload);
            let qps = requests as f64 / secs;
            let (p50, p95, p99) = hist.percentiles();
            rows.push(vec![
                format!("router/{backends}"),
                clients.to_string(),
                format!("{secs:.3}"),
                format!("{qps:.1}"),
                format!("{p50:.5}"),
                format!("{p99:.5}"),
            ]);
            tier_json.push(obj(vec![
                ("clients", Json::U64(clients as u64)),
                ("total_seconds", Json::F64(secs)),
                ("queries_per_second", Json::F64(qps)),
                ("p50_seconds", Json::F64(p50)),
                ("p95_seconds", Json::F64(p95)),
                ("p99_seconds", Json::F64(p99)),
            ]));
        }
        json_tiers.push(obj(vec![
            ("tier", Json::Str("router".into())),
            ("backends", Json::U64(backends as u64)),
            ("sweep", Json::Arr(tier_json)),
        ]));

        let mut client = Client::connect(router.addr()).expect("shutdown client");
        let stats = client.stats().expect("router stats");
        assert_eq!(stats.unhealthy_backends, 0, "no backend may fail during the study");
        client.shutdown().expect("router shutdown"); // propagates to backends
        router.join().expect("router join");
        for h in backend_handles {
            h.join().expect("backend join");
        }
    }

    // HA scenario: two replicas per shard, one replica killed mid-sweep.
    // The router must fail over transparently — every answer stays equal
    // to the single-process reference — and the kill must be visible as
    // failovers in the aggregated stats.
    {
        let shards = 2usize;
        let replicas = 2usize;
        let sharded = build_engine(&graph, shards);
        let mut handles: Vec<ServerHandle> = Vec::new();
        for sid in 0..shards {
            for _ in 0..replicas {
                let slice = ShardSlice::from_index(sharded.index(), sid).expect("slice");
                let engine = ShardEngine::from_parts(graph.clone(), slice).expect("shard engine");
                handles.push(
                    Server::bind_shard(
                        engine,
                        "127.0.0.1:0",
                        ServerConfig { workers: cores.max(2), ..Default::default() },
                    )
                    .expect("bind replica")
                    .spawn(),
                );
            }
        }
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let router = Router::bind(
            &addrs,
            "127.0.0.1:0",
            RouterConfig { workers: cores.max(max_clients) + 1, ..Default::default() },
        )
        .expect("bind HA router")
        .spawn();

        let victim_addr = handles[0].addr(); // first replica of shard 0
        let mut client = Client::connect(router.addr()).expect("HA client");
        let t0 = Instant::now();
        let mid = workload.len() / 2;
        for (i, &q) in workload.iter().enumerate() {
            if i == mid {
                // Kill the victim behind the router's back, mid-load.
                let mut backdoor = Client::connect(victim_addr).expect("victim backdoor");
                backdoor.shutdown().expect("victim shutdown");
            }
            let r = client.reverse_topk(q, K, false).expect("HA query must never fail");
            assert_eq!(r.nodes, reference[i], "HA answer diverged after replica kill (q={q})");
        }
        let secs = t0.elapsed().as_secs_f64();
        let stats = client.stats().expect("HA stats");
        assert!(
            stats.failovers >= 1,
            "killing a replica mid-sweep must register at least one failover"
        );
        println!(
            "\nHA scenario: {} requests across the kill in {secs:.3}s — \
             {} failover(s), {} hedged request(s), {} backend(s) unhealthy at end",
            workload.len(),
            stats.failovers,
            stats.hedged_requests,
            stats.unhealthy_backends
        );
        client.shutdown().expect("HA router shutdown");
        router.join().expect("HA router join");
        let mut survivors = 0usize;
        for (i, h) in handles.into_iter().enumerate() {
            if i == 0 {
                h.join().expect("victim join"); // already shut down mid-sweep
            } else {
                h.join().expect("replica join");
                survivors += 1;
            }
        }
        assert_eq!(survivors, shards * replicas - 1);
    }

    let mut client = Client::connect(single.addr()).expect("single shutdown client");
    client.shutdown().expect("single shutdown");
    single.join().expect("single join");

    println!("\n### Frozen reverse top-{K} ({requests} requests per sweep)");
    print_table(&["tier", "clients", "total (s)", "req/s", "p50 (s)", "p99 (s)"], &rows);

    let artifact = obj(vec![
        ("bench", Json::Str("router_study".into())),
        ("graph", graph_json("rmat", nodes, edges, seed)),
        ("k", Json::U64(K as u64)),
        ("requests", Json::U64(requests as u64)),
        ("threads_available", Json::U64(cores as u64)),
        ("tiers", Json::Arr(json_tiers)),
    ]);
    println!();
    write_json_artifact(OUT_PATH, &artifact);
}
