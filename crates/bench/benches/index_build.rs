//! Criterion micro-bench: offline index construction (Alg. 1) across hub
//! budgets and hub-vector solvers (the knobs of Table 2), plus the hub
//! layer (`HubMatrix::build`) on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::TransitionMatrix;
use rtk_index::{HubMatrix, HubSelection, HubSolver, IndexConfig, ReverseIndex};
use rtk_rwr::{BcaParams, HubSet, RwrParams};

fn bench_index_build(c: &mut Criterion) {
    let graph = rmat(&RmatConfig::new(3_000, 12_000, 42)).unwrap();
    let transition = TransitionMatrix::new(&graph);

    let mut group = c.benchmark_group("index_build_3k");
    for b in [10usize, 50] {
        group.bench_with_input(BenchmarkId::new("pm_hubs", b), &b, |bench, &b| {
            let config = IndexConfig {
                max_k: 100,
                hub_selection: HubSelection::DegreeBased { b },
                threads: 1,
                ..Default::default()
            };
            bench.iter(|| {
                let index = ReverseIndex::build(&transition, config.clone()).unwrap();
                std::hint::black_box(index.stats().hub_count)
            });
        });
    }
    group.bench_function(BenchmarkId::new("bca_hubs", 50), |bench| {
        let config = IndexConfig {
            max_k: 100,
            hub_selection: HubSelection::DegreeBased { b: 50 },
            hub_solver: HubSolver::Bca(BcaParams {
                propagation_threshold: 1e-7,
                residue_threshold: 1e-3,
                ..Default::default()
            }),
            threads: 1,
            ..Default::default()
        };
        bench.iter(|| {
            let index = ReverseIndex::build(&transition, config.clone()).unwrap();
            std::hint::black_box(index.stats().hub_count)
        });
    });
    // Parallel speedup sanity: all cores vs one.
    group.bench_function(BenchmarkId::new("pm_hubs_all_cores", 50), |bench| {
        let config = IndexConfig {
            max_k: 100,
            hub_selection: HubSelection::DegreeBased { b: 50 },
            threads: 0,
            ..Default::default()
        };
        bench.iter(|| {
            let index = ReverseIndex::build(&transition, config.clone()).unwrap();
            std::hint::black_box(index.stats().hub_count)
        });
    });
    group.finish();
}

/// The hub matrix alone: power-method columns of the paper's degree-based
/// hub set (`B` = 50 per direction), rounded at the default `ω`, on one
/// worker and on all cores.
fn bench_hub_matrix_build(c: &mut Criterion) {
    let graph = rmat(&RmatConfig::new(3_000, 12_000, 42)).unwrap();
    let transition = TransitionMatrix::new(&graph);
    let hubs = HubSet::degree_based(&graph, 50);
    let solver = HubSolver::PowerMethod(RwrParams::default());
    let omega = IndexConfig::default().rounding_threshold;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    let mut group = c.benchmark_group("hub_matrix_build");
    for (label, threads) in [("threads_1", 1), ("all_cores", cores)] {
        group.bench_function(BenchmarkId::new(label, hubs.len()), |bench| {
            bench.iter(|| {
                let matrix = HubMatrix::build(&transition, hubs.clone(), &solver, omega, threads);
                std::hint::black_box(matrix.nnz())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hub_matrix_build, bench_index_build
}
criterion_main!(benches);
