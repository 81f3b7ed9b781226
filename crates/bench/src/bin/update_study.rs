//! `update_study` — incremental edge updates vs. from-scratch rebuilds
//! (PR 9's dynamic-graph engine; see `docs/ARCHITECTURE.md` §"Dynamic
//! graphs").
//!
//! For each thread count the study builds a seed index, streams a seeded
//! sequence of `add_edge`/`remove_edge` operations through the engine's
//! incremental path (timing every update), then rebuilds the index from
//! scratch over the post-update graph with the hub set pinned — the
//! rebuild is both the cost comparator (`speedup_vs_rebuild`) and the
//! determinism oracle: every per-node state and every frozen answer must
//! match bitwise, or the row reports `deterministic_match: false` and the
//! run fails.
//!
//! Rounding is disabled (`ω = 0`) for the oracle comparison — the repo's
//! standing rule for incremental-vs-rebuild byte equality (a rounded hub
//! matrix persists only an aggregate unrounded-nnz count a targeted
//! recompute cannot reproduce).
//!
//! Each row also times `hub_build_seconds`: `HubMatrix::build` alone on
//! the row's pinned hub set and pre-update graph, outside the update loop
//! — the hub layer an update re-solves column by column.
//!
//! Each row reports the three sizes behind an update's cost, averaged per
//! update: `mean_affected_states` (the BFS set of nodes that can reach the
//! edited source — on scale-free R-MAT graphs often a large share of the
//! graph), `mean_recomputed_states` (the states whose walk pushed the
//! source, so their BCA re-runs) and `mean_rematerialized_states` (the
//! other states that parked ink on a recomputed hub column, which only
//! rebuild their top-K bounds). Re-runs are a subset of the BFS set. Thread
//! counts above the machine's cores are flagged `oversubscribed` rather
//! than silently reported as scaling.
//!
//! Merges an `incremental_vs_rebuild` member into `BENCH_query.json`
//! (owned by `parallel_study`); the other members are preserved verbatim.

use std::time::Instant;

use rtk_bench::{banner, graph_json, mean, merge_json_artifact, obj, print_table, Args};
use rtk_core::{ReverseTopkEngine, UpdateEffect, UpdateRecord};
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::{DiGraph, NodeId, TransitionMatrix};
use rtk_index::{affected_set, HubMatrix, HubSelection};
use rtk_obs::Json;
use rtk_query::QueryOptions;
use rtk_rwr::HubSet;

const OUT_PATH: &str = "BENCH_query.json";
const SEED: u64 = 7;
const MAX_K: usize = 8;
const HUBS: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Splitmix-style generator for the update stream (same shape as the
/// `incremental_updates` integration suite: a pure function of
/// (graph, seed), ~60% inserts, never removing a node's last out-edge).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn update_sequence(graph: &DiGraph, seed: u64, len: usize) -> Vec<UpdateRecord> {
    let n = graph.node_count() as u32;
    let mut edges: std::collections::BTreeSet<(u32, u32)> =
        graph.edges().map(|(from, to, _)| (from, to)).collect();
    let mut out_deg: Vec<usize> = (0..n).map(|u| graph.out_neighbors(u).len()).collect();
    let mut rng = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut records = Vec::with_capacity(len);
    while records.len() < len {
        let removable: Vec<(u32, u32)> =
            edges.iter().copied().filter(|&(from, _)| out_deg[from as usize] >= 2).collect();
        if rng.next() % 10 < 4 && !removable.is_empty() {
            let (from, to) = removable[(rng.next() % removable.len() as u64) as usize];
            edges.remove(&(from, to));
            out_deg[from as usize] -= 1;
            records.push(UpdateRecord::RemoveEdge { from, to });
        } else {
            let from = (rng.next() % n as u64) as u32;
            let to = (rng.next() % n as u64) as u32;
            let weight = 0.25 + (rng.next() % 8) as f64 * 0.25;
            if edges.insert((from, to)) {
                out_deg[from as usize] += 1;
            }
            records.push(UpdateRecord::AddEdge { from, to, weight });
        }
    }
    records
}

fn frozen() -> QueryOptions {
    QueryOptions { update_index: false, query_threads: 1, ..Default::default() }
}

/// A fixed frozen probe workload over the post-update engine.
fn probes(n: usize) -> Vec<(u32, usize)> {
    (0..8).map(|i| ((((i * 131) + 5) % n) as u32, 1 + i % MAX_K)).collect()
}

fn answers(engine: &mut ReverseTopkEngine) -> Vec<(Vec<u32>, Vec<u64>)> {
    probes(engine.node_count())
        .into_iter()
        .map(|(q, k)| {
            let r = engine.query_with(NodeId(q), k, &frozen()).expect("frozen probe");
            (r.nodes().to_vec(), r.proximities().iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

fn build(graph: DiGraph, threads: usize, hubs: Option<Vec<u32>>) -> ReverseTopkEngine {
    let mut b = ReverseTopkEngine::builder(graph)
        .max_k(MAX_K)
        .threads(threads)
        .rounding_threshold(0.0);
    b = match hubs {
        Some(ids) => b.hub_selection(HubSelection::Explicit(ids)),
        None => b.hubs_per_direction(HUBS),
    };
    b.build().expect("engine build")
}

fn main() {
    let args = Args::parse();
    let (nodes, edges, updates) = if args.quick { (700, 3_600, 30) } else { (5_000, 30_000, 150) };
    let updates = args.queries.unwrap_or(updates);
    let graph = rmat(&RmatConfig::new(nodes, edges, SEED)).expect("rmat");
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    banner(
        "update_study",
        "§6 dynamics (PR 9: incremental maintenance vs rebuild)",
        &format!("rmat {nodes} nodes / {} edges", graph.edge_count()),
        &format!("{updates} edge updates, ω = 0, hub set pinned"),
    );
    println!(
        "cores: {cores} (rows with threads > cores are flagged oversubscribed);\n\
         per update: BFS = states that can reach the source, re-run = states\n\
         whose walk pushed it, remat = other states reading a recomputed hub.\n"
    );

    let records = update_sequence(&graph, SEED, updates);
    let mut rows_json = Vec::new();
    let mut rows_human = Vec::new();
    let mut baseline: Option<Vec<(Vec<u32>, Vec<u64>)>> = None;
    let mut all_match = true;

    for threads in THREAD_COUNTS {
        let t0 = Instant::now();
        let mut live = build(graph.clone(), threads, None);
        let build_seconds = t0.elapsed().as_secs_f64();
        let hubs: Vec<u32> = live.index().hub_matrix().hubs().ids().to_vec();

        let transition = TransitionMatrix::new(&graph);
        let config = live.index().config();
        let pinned = HubSet::from_ids(graph.node_count(), hubs.clone());
        let t = Instant::now();
        let hub_matrix = HubMatrix::build(
            &transition,
            pinned,
            &config.hub_solver,
            config.rounding_threshold,
            threads,
        );
        let hub_build_seconds = t.elapsed().as_secs_f64();
        assert_eq!(
            &hub_matrix,
            live.index().hub_matrix(),
            "the pinned hub build must reproduce the engine's hub matrix"
        );

        let mut per_update = Vec::with_capacity(records.len());
        let mut affected_states = 0usize;
        let mut effects = UpdateEffect::default();
        for record in &records {
            affected_states += affected_set(live.graph(), record.source()).len();
            let t = Instant::now();
            let effect = live.replay_updates(std::slice::from_ref(record)).expect("update");
            per_update.push(t.elapsed().as_secs_f64());
            effects.merge(effect);
        }
        let per_op = |count: usize| count as f64 / records.len() as f64;

        let t1 = Instant::now();
        let mut oracle = build(live.graph().clone(), threads, Some(hubs));
        let rebuild_seconds = t1.elapsed().as_secs_f64();

        let mut deterministic = true;
        for u in 0..live.node_count() as u32 {
            if live.index().state(u) != oracle.index().state(u) {
                deterministic = false;
                println!("!! threads={threads}: state {u} diverged from the pinned rebuild");
                break;
            }
        }
        let live_answers = answers(&mut live);
        if live_answers != answers(&mut oracle) {
            deterministic = false;
            println!("!! threads={threads}: frozen answers diverged from the pinned rebuild");
        }
        match &baseline {
            Some(base) if *base != live_answers => {
                deterministic = false;
                println!("!! threads={threads}: frozen answers diverged from the 1-thread run");
            }
            None => baseline = Some(live_answers),
            _ => {}
        }
        all_match &= deterministic;

        let mean_update = mean(&per_update);
        let speedup = if mean_update > 0.0 { rebuild_seconds / mean_update } else { 0.0 };
        let oversubscribed = threads > cores;
        rows_human.push(vec![
            format!("{threads}{}", if oversubscribed { "*" } else { "" }),
            format!("{build_seconds:.3}"),
            format!("{hub_build_seconds:.3}"),
            format!("{:.6}", mean_update),
            format!("{:.1}", per_op(affected_states)),
            format!("{:.1}", per_op(effects.recomputed_states)),
            format!("{:.1}", per_op(effects.rematerialized_states)),
            format!("{rebuild_seconds:.3}"),
            format!("{speedup:.1}x"),
            deterministic.to_string(),
        ]);
        rows_json.push(obj(vec![
            ("threads", Json::U64(threads as u64)),
            ("build_seconds", Json::F64(build_seconds)),
            ("hub_build_seconds", Json::F64(hub_build_seconds)),
            ("mean_update_seconds", Json::F64(mean_update)),
            ("total_update_seconds", Json::F64(per_update.iter().sum())),
            ("mean_affected_states", Json::F64(per_op(affected_states))),
            ("mean_recomputed_states", Json::F64(per_op(effects.recomputed_states))),
            ("mean_rematerialized_states", Json::F64(per_op(effects.rematerialized_states))),
            ("recomputed_hubs_total", Json::U64(effects.recomputed_hubs as u64)),
            ("rebuild_seconds", Json::F64(rebuild_seconds)),
            ("speedup_vs_rebuild", Json::F64(speedup)),
            ("deterministic_match", Json::Bool(deterministic)),
            ("oversubscribed", Json::Bool(oversubscribed)),
        ]));
    }

    print_table(
        &[
            "threads",
            "build s",
            "hub build s",
            "update s (mean)",
            "BFS/upd",
            "re-run/upd",
            "remat/upd",
            "rebuild s",
            "speedup",
            "match",
        ],
        &rows_human,
    );
    println!("\n(* = more threads than the {cores} cores present — not a scaling datapoint)");

    let section = obj(vec![
        ("graph", graph_json("rmat", nodes, graph.edge_count(), SEED)),
        ("max_k", Json::U64(MAX_K as u64)),
        ("updates", Json::U64(records.len() as u64)),
        ("threads_available", Json::U64(cores as u64)),
        ("rows", Json::Arr(rows_json)),
    ]);
    merge_json_artifact(OUT_PATH, "incremental_vs_rebuild", &section);

    if !all_match {
        println!("!! determinism gate FAILED — see rows above");
        std::process::exit(1);
    }
}
