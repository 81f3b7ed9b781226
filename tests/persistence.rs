//! Persistence integration: engines, indexes and graphs survive disk
//! round-trips and keep answering queries identically — including indexes
//! that were refined by a query workload before saving.

use reverse_topk_rwr::prelude::*;
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::TransitionMatrix;
use rtk_index::{HubSelection, ReverseIndex};
use rtk_query::{QueryEngine, QueryOptions};

fn sample_graph() -> DiGraph {
    rmat(&RmatConfig::new(150, 600, 77)).unwrap()
}

fn sample_config() -> IndexConfig {
    IndexConfig {
        max_k: 8,
        hub_selection: HubSelection::DegreeBased { b: 6 },
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn refined_index_round_trips_with_its_refinements() {
    let graph = sample_graph();
    let transition = TransitionMatrix::new(&graph);
    let mut index = ReverseIndex::build(&transition, sample_config()).unwrap();
    let mut session = QueryEngine::new(&index);

    // Refine the index with a workload.
    let mut results = Vec::new();
    for q in (0..150u32).step_by(11) {
        results
            .push(session.query(&transition, &mut index, q, 8, &QueryOptions::default()).unwrap());
    }

    // Persist and reload.
    let mut buf = Vec::new();
    rtk_index::storage::save(&index, &mut buf).unwrap();
    let mut loaded = rtk_index::storage::load(std::io::Cursor::new(buf)).unwrap();

    // The loaded index must answer every query identically and must have
    // kept the refinement (no extra refinement iterations needed compared to
    // the in-memory index).
    let mut session2 = QueryEngine::new(&loaded);
    for (i, q) in (0..150u32).step_by(11).enumerate() {
        let again = session2
            .query(&transition, &mut loaded, q, 8, &QueryOptions::default())
            .unwrap();
        assert_eq!(again.nodes(), results[i].nodes(), "q={q}");
    }
}

#[test]
fn engine_snapshot_round_trips_through_a_file() {
    let mut engine = ReverseTopkEngine::builder(sample_graph())
        .max_k(8)
        .hubs_per_direction(6)
        .threads(2)
        .build()
        .unwrap();
    let before: Vec<_> = (0..5u32).map(|q| engine.query(NodeId(q * 7), 5).unwrap()).collect();

    let dir = std::env::temp_dir().join("rtk_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.rtke");
    engine.save_path(&path).unwrap();

    let mut loaded = ReverseTopkEngine::load_path(&path).unwrap();
    assert_eq!(loaded.node_count(), engine.node_count());
    for (i, q) in (0..5u32).map(|q| q * 7).enumerate() {
        let after = loaded.query(NodeId(q), 5).unwrap();
        assert_eq!(after.nodes(), before[i].nodes(), "q={q}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_engine_snapshots_are_rejected() {
    let engine = ReverseTopkEngine::builder(sample_graph())
        .max_k(4)
        .hubs_per_direction(3)
        .threads(1)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    engine.save(&mut buf).unwrap();

    // Bad magic.
    let mut bad = buf.clone();
    bad[0] = b'x';
    assert!(ReverseTopkEngine::load(std::io::Cursor::new(bad)).is_err());

    // Truncations at several depths.
    for cut in [4usize, 20, buf.len() / 2, buf.len() - 5] {
        let mut bad = buf.clone();
        bad.truncate(cut);
        assert!(
            ReverseTopkEngine::load(std::io::Cursor::new(bad)).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

#[test]
fn graph_files_round_trip_through_facade_types() {
    let graph = sample_graph();
    let dir = std::env::temp_dir().join("rtk_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.rtkg");
    rtk_graph::io::write_binary_path(&graph, &path).unwrap();
    let back = rtk_graph::io::read_binary_path(&path).unwrap();
    assert_eq!(back, graph);
    std::fs::remove_file(&path).ok();
}

/// The hub solver is part of the snapshot: a loaded engine re-solves the
/// hub columns an edit touches with the solver that built the others, so
/// save → load → edits ends where the live engine applying the same edits
/// does, byte for byte. `ω = 0`, the standing rule for update byte
/// equality (the rounded-away entry count is stored as one aggregate).
#[test]
fn custom_hub_solvers_survive_save_load_and_edits() {
    let solvers = [
        HubSolver::PowerMethod(RwrParams { epsilon: 1e-6, ..RwrParams::default() }),
        HubSolver::Bca(BcaParams {
            propagation_threshold: 1e-7,
            residue_threshold: 1e-3,
            ..BcaParams::default()
        }),
        HubSolver::PowerMethod(RwrParams::default()),
    ];
    let edits = [(3u32, 97u32), (41, 5), (120, 66)];
    for solver in solvers {
        let config = IndexConfig {
            hub_solver: solver,
            rounding_threshold: 0.0,
            threads: 2,
            ..sample_config()
        };
        let mut live =
            ReverseTopkEngine::builder(sample_graph()).index_config(config).build().unwrap();
        let mut bytes = Vec::new();
        live.save(&mut bytes).unwrap();
        let mut loaded = ReverseTopkEngine::load(bytes.as_slice()).unwrap();
        assert_eq!(loaded.index().config().hub_solver, solver);
        let mut hubs_touched = 0;
        for &(from, to) in &edits {
            let effect = live.add_edge(NodeId(from), NodeId(to), 1.0).unwrap();
            loaded.add_edge(NodeId(from), NodeId(to), 1.0).unwrap();
            hubs_touched += effect.recomputed_hubs;
        }
        assert!(hubs_touched > 0, "test premise: the edits re-solve hub columns");
        assert_eq!(loaded.index_digest(), live.index_digest(), "{solver:?}");
    }
}
