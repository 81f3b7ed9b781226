//! Forward power-method solvers (Eq. 12 and Eq. 3 of the paper).

use crate::params::RwrParams;
use rtk_graph::TransitionMatrix;
use rtk_sparse::{dense, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Convergence report attached to every solver result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveReport {
    /// Iterations actually performed.
    pub iterations: u32,
    /// Final L1 distance between the last two iterates.
    pub final_delta: f64,
    /// Whether `final_delta < ε` was reached within the iteration cap.
    pub converged: bool,
}

/// Computes the proximity vector `p_u` — column `u` of the proximity matrix
/// `P` — by the iteration `x ← (1−α)·A·x + α·e_u` (Eq. 12).
///
/// Returns the vector and a [`SolveReport`]. The result is non-negative and
/// sums to 1 (up to `ε`).
pub fn proximity_from(
    transition: &TransitionMatrix<'_>,
    u: u32,
    params: &RwrParams,
) -> (Vec<f64>, SolveReport) {
    params.validate();
    let n = transition.node_count();
    assert!((u as usize) < n, "proximity_from: node {u} out of range");
    let mut restart = vec![0.0; n];
    restart[u as usize] = 1.0;
    solve_forward(transition, &restart, params)
}

/// Computes the global PageRank vector `pr = P·e/n` (Eq. 3): the stationary
/// distribution of a walk restarting uniformly.
pub fn pagerank(transition: &TransitionMatrix<'_>, params: &RwrParams) -> (Vec<f64>, SolveReport) {
    params.validate();
    let n = transition.node_count();
    let restart = vec![1.0 / n as f64; n];
    solve_forward(transition, &restart, params)
}

/// Computes a personalized PageRank vector `ppr_v = P·v` (Eq. 3) for an
/// arbitrary restart distribution `v` (non-negative, summing to 1).
pub fn personalized_pagerank(
    transition: &TransitionMatrix<'_>,
    restart: &[f64],
    params: &RwrParams,
) -> (Vec<f64>, SolveReport) {
    params.validate();
    assert_eq!(restart.len(), transition.node_count(), "restart length mismatch");
    assert!(restart.iter().all(|&v| v >= 0.0), "restart must be non-negative");
    let sum: f64 = restart.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "restart must sum to 1, got {sum}");
    solve_forward(transition, restart, params)
}

/// Shared iteration: `x ← (1−α)·A·x + α·restart` until the L1 step-change
/// drops below `ε`. The restart vector is folded in densely, so this handles
/// unit, uniform, and arbitrary personalization alike. Each `A·x` product
/// runs over `params.threads` workers (`0` = all cores) with bitwise
/// identical results for any thread count.
fn solve_forward(
    transition: &TransitionMatrix<'_>,
    restart: &[f64],
    params: &RwrParams,
) -> (Vec<f64>, SolveReport) {
    let n = transition.node_count();
    let mut x = restart.to_vec();
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    let mut delta = f64::INFINITY;
    while iterations < params.max_iterations {
        // y = (1-α) A x + α restart, via the CSC gather.
        transition.apply_forward_restart_threaded(
            params.alpha,
            &x,
            restart,
            &mut y,
            params.threads,
        );
        iterations += 1;
        delta = dense::l1_distance(&x, &y);
        std::mem::swap(&mut x, &mut y);
        if delta < params.epsilon {
            break;
        }
    }
    let converged = delta < params.epsilon;
    (x, SolveReport { iterations, final_delta: delta, converged })
}

/// Lanes one worker of [`proximity_from_many`] advances per sweep over the
/// in-edges. Eight lanes of a source node fill one 64-byte cache line.
/// Measured with the `hub_matrix_build` bench (68 hubs of a 3k-node R-MAT
/// graph, 2-core x86-64, SSE2 baseline), 16 lanes were slower than 8: a
/// best of 53 vs 39–45 ms on one worker, 30 vs 24–25 ms on two.
pub const LANES: usize = 8;

/// Solves [`proximity_from`] for every node of `sources`, [`LANES`] at a
/// time per worker, and returns `finish(i, p_{sources[i]}, report)` for
/// each `i` in source order.
///
/// Each of `workers` pool workers (at least one, at most one per source)
/// keeps up to [`LANES`] iterates lane-interleaved and advances all of them
/// with one [`TransitionMatrix::apply_forward_lanes`] sweep per iteration.
/// Every lane keeps its own iteration count and its own `Σ|x−y|`, summed in
/// node order like [`dense::l1_distance`], and stops by
/// [`proximity_from`]'s rule: `Σ|x−y| < ε`, or `max_iterations` reached.
/// A stopped lane hands its vector and [`SolveReport`] to `finish`, then
/// takes the next source from a counter shared by the workers. Lanes never
/// mix and every lane's arithmetic is the single-source arithmetic, so each
/// vector and each report is bitwise equal to `proximity_from(source)`,
/// for any worker count and any order in which lanes stop and refill.
///
/// `params.threads` is not read: the parallelism is across sources. Each
/// worker holds two `n·LANES` iterate buffers.
///
/// # Panics
/// Panics on invalid `params` or an out-of-range source.
pub fn proximity_from_many<T, F>(
    transition: &TransitionMatrix<'_>,
    sources: &[u32],
    params: &RwrParams,
    workers: usize,
    finish: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64], SolveReport) -> T + Sync,
{
    params.validate();
    let n = transition.node_count();
    if let Some(&bad) = sources.iter().find(|&&u| u as usize >= n) {
        panic!("proximity_from_many: node {bad} out of range");
    }
    if sources.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(sources.len());
    // Spread a short source list over the workers instead of packing it
    // into the first worker's lanes.
    let lanes = LANES.min(sources.len().div_ceil(workers));
    let next = AtomicUsize::new(0);
    let collected = Mutex::new(Vec::<Vec<(usize, T)>>::new());
    WorkerPool::global().scope(|scope| {
        for _ in 0..workers {
            let (next, collected, finish) = (&next, &collected, &finish);
            scope.spawn(move || {
                let local = solve_lanes(transition, sources, params, lanes, next, finish);
                collected.lock().expect("multi-source results poisoned").push(local);
            });
        }
    });
    let mut slots: Vec<Option<T>> = (0..sources.len()).map(|_| None).collect();
    for chunk in collected.into_inner().expect("multi-source results poisoned") {
        for (i, result) in chunk {
            slots[i] = Some(result);
        }
    }
    slots.into_iter().map(|s| s.expect("source left unsolved")).collect()
}

/// One worker of [`proximity_from_many`]: runs up to `lanes` of the
/// [`LANES`] lanes until the shared counter `next` runs out of sources.
fn solve_lanes<T, F>(
    transition: &TransitionMatrix<'_>,
    sources: &[u32],
    params: &RwrParams,
    lanes: usize,
    next: &AtomicUsize,
    finish: &F,
) -> Vec<(usize, T)>
where
    F: Fn(usize, &[f64], SolveReport) -> T,
{
    const W: usize = LANES;
    let n = transition.node_count();
    // Lane `j` solves `sources[slot[j]]`; its iterate is column `j` of `x`
    // (`x[v·W + j]`), all zeros while the lane is idle (`restarts[j]` is
    // `None`).
    let mut x = vec![0.0; n * W];
    let mut y = vec![0.0; n * W];
    let mut restarts: [Option<u32>; W] = [None; W];
    let mut slot = [0usize; W];
    let mut iterations = [0u32; W];
    let mut column = vec![0.0; n];
    let mut out = Vec::new();
    let mut exhausted = false;
    loop {
        // Load idle lanes: all of them at first, then each stopped lane.
        for j in 0..lanes {
            if restarts[j].is_some() || exhausted {
                continue;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sources.len() {
                exhausted = true;
                continue;
            }
            // `proximity_from` starts from the restart vector itself.
            x[sources[i] as usize * W + j] = 1.0;
            restarts[j] = Some(sources[i]);
            slot[j] = i;
            iterations[j] = 0;
        }
        if restarts.iter().all(Option::is_none) {
            return out;
        }
        transition.apply_forward_lanes::<W>(params.alpha, &x, &restarts, &mut y);
        let deltas = lane_l1_distances::<W>(&x, &y);
        std::mem::swap(&mut x, &mut y);
        for j in 0..W {
            if restarts[j].is_none() {
                continue;
            }
            iterations[j] += 1;
            let delta = deltas[j];
            if delta >= params.epsilon && iterations[j] < params.max_iterations {
                continue;
            }
            // Emit the lane and leave its column zeroed for the next source.
            for (v, entry) in column.iter_mut().enumerate() {
                *entry = std::mem::take(&mut x[v * W + j]);
            }
            let report = SolveReport {
                iterations: iterations[j],
                final_delta: delta,
                converged: delta < params.epsilon,
            };
            out.push((slot[j], finish(slot[j], &column, report)));
            restarts[j] = None;
        }
    }
}

/// Per-lane `Σ_v |x[v·W + j] − y[v·W + j]|`, each lane summed in node order
/// from `0.0` — the same additions [`dense::l1_distance`] makes on one
/// de-interleaved lane (the sign of the starting zero cannot show once a
/// non-negative term has been added, and `n ≥ 1` here).
fn lane_l1_distances<const W: usize>(x: &[f64], y: &[f64]) -> [f64; W] {
    let mut deltas = [0.0; W];
    for (xs, ys) in x.chunks_exact(W).zip(y.chunks_exact(W)) {
        for j in 0..W {
            deltas[j] += (xs[j] - ys[j]).abs();
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_graph::{DanglingPolicy, GraphBuilder};

    fn toy() -> rtk_graph::DiGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 3),
                (0, 5),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 3),
            ],
            DanglingPolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn reproduces_paper_figure_1_matrix() {
        // Column-by-column check of Figure 1's proximity matrix (2 decimals).
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let expected: [[f64; 6]; 6] = [
            [0.32, 0.28, 0.12, 0.13, 0.06, 0.09],
            [0.24, 0.39, 0.17, 0.10, 0.04, 0.07],
            [0.24, 0.29, 0.27, 0.10, 0.04, 0.07],
            [0.19, 0.31, 0.13, 0.23, 0.10, 0.05],
            [0.20, 0.33, 0.14, 0.08, 0.18, 0.06],
            [0.18, 0.30, 0.13, 0.14, 0.06, 0.20],
        ];
        for u in 0..6u32 {
            let (p, report) = proximity_from(&t, u, &params);
            assert!(report.converged);
            for v in 0..6 {
                assert!(
                    (p[v] - expected[u as usize][v]).abs() < 5e-3,
                    "p_{}({}) = {} vs paper {}",
                    u + 1,
                    v + 1,
                    p[v],
                    expected[u as usize][v]
                );
            }
        }
    }

    #[test]
    fn proximity_vector_is_a_distribution() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (p, _) = proximity_from(&t, 3, &RwrParams::default());
        assert!(p.iter().all(|&v| v >= 0.0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn restart_node_dominates_with_high_alpha() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (p, _) = proximity_from(&t, 2, &RwrParams::with_alpha(0.9));
        let max = rtk_sparse::dense::argmax(&p).unwrap();
        assert_eq!(max, 2);
        assert!(p[2] > 0.9);
    }

    #[test]
    fn pagerank_averages_columns() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let (pr, _) = pagerank(&t, &params);
        let mut avg = [0.0; 6];
        for u in 0..6u32 {
            let (p, _) = proximity_from(&t, u, &params);
            for v in 0..6 {
                avg[v] += p[v] / 6.0;
            }
        }
        for v in 0..6 {
            assert!((pr[v] - avg[v]).abs() < 1e-7, "pagerank({v})");
        }
    }

    #[test]
    fn personalized_pagerank_matches_mixture() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let restart = [0.5, 0.0, 0.0, 0.5, 0.0, 0.0];
        let (ppr, _) = personalized_pagerank(&t, &restart, &params);
        let (p0, _) = proximity_from(&t, 0, &params);
        let (p3, _) = proximity_from(&t, 3, &params);
        for v in 0..6 {
            assert!((ppr[v] - 0.5 * (p0[v] + p3[v])).abs() < 1e-7);
        }
    }

    #[test]
    fn iteration_count_respects_theorem_bound() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let params = RwrParams::default();
        let (_, report) = proximity_from(&t, 0, &params);
        assert!(report.iterations <= params.iteration_bound() + 1);
    }

    /// Runs [`proximity_from_many`] and checks every vector and report
    /// against [`proximity_from`] bit for bit. Returns the reports.
    fn assert_many_matches_single(
        t: &TransitionMatrix<'_>,
        sources: &[u32],
        params: &RwrParams,
        workers: usize,
    ) -> Vec<SolveReport> {
        let many = proximity_from_many(t, sources, params, workers, |i, x, report| {
            (i, x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), report)
        });
        assert_eq!(many.len(), sources.len());
        let mut reports = Vec::new();
        for (i, (slot, bits, report)) in many.into_iter().enumerate() {
            let (want, want_report) = proximity_from(t, sources[i], params);
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let ctx = format!("source #{i} (node {}), {workers} worker(s)", sources[i]);
            assert_eq!(slot, i, "{ctx}: finish saw the wrong position");
            assert_eq!(bits, want_bits, "{ctx}: vector bits");
            assert_eq!(report.iterations, want_report.iterations, "{ctx}: iterations");
            assert_eq!(
                report.final_delta.to_bits(),
                want_report.final_delta.to_bits(),
                "{ctx}: final_delta"
            );
            assert_eq!(report.converged, want_report.converged, "{ctx}: converged");
            reports.push(report);
        }
        reports
    }

    fn rmat_graph() -> rtk_graph::DiGraph {
        rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(400, 2_000, 5)).unwrap()
    }

    #[test]
    fn many_sources_refill_lanes_bitwise() {
        let g = rmat_graph();
        let params = RwrParams::default();
        // More sources than one worker's lanes (refill) and fewer.
        let many: Vec<u32> = (0..3 * LANES as u32 + 5).map(|i| (i * 37 + 11) % 400).collect();
        let few: Vec<u32> = vec![7, 123, 350];
        for t in [TransitionMatrix::new(&g), TransitionMatrix::new_kernelized(&g)] {
            for workers in [1, 2] {
                assert_many_matches_single(&t, &many, &params, workers);
                assert_many_matches_single(&t, &few, &params, workers);
            }
        }
    }

    #[test]
    fn capped_lane_stops_while_others_converge() {
        let g = rmat_graph();
        let t = TransitionMatrix::new(&g);
        let count = |u: u32| proximity_from(&t, u, &RwrParams::default()).1.iterations;
        // Sources whose walk leaves them (a self-loop-only node converges
        // in one iteration, before any summation order could show).
        let sources: Vec<u32> = (0..400)
            .map(|i| (i * 53 + 2) % 400)
            .filter(|&u| count(u) > 1)
            .take(2 * LANES)
            .collect();
        let mut counts: Vec<u32> = sources.iter().map(|&u| count(u)).collect();
        counts.sort_unstable();
        assert!(counts[0] < counts[counts.len() - 1], "test premise: iteration counts differ");
        // The fastest source converges exactly at the cap; the rest hit it.
        let params = RwrParams { max_iterations: counts[0], ..RwrParams::default() };
        for t in [TransitionMatrix::new(&g), TransitionMatrix::new_kernelized(&g)] {
            for workers in [1, 2] {
                let reports = assert_many_matches_single(&t, &sources, &params, workers);
                assert!(reports.iter().any(|r| r.converged));
                assert!(reports.iter().any(|r| !r.converged && r.iterations == counts[0]));
            }
        }
    }

    #[test]
    fn fewer_nodes_than_lanes_and_repeated_sources() {
        let g = toy();
        assert!(g.node_count() < LANES);
        let params = RwrParams::default();
        let sources = [0, 3, 3, 5, 1, 2, 4, 0, 5, 5, 3];
        for t in [TransitionMatrix::new(&g), TransitionMatrix::new_kernelized(&g)] {
            for workers in [1, 2] {
                assert_many_matches_single(&t, &sources, &params, workers);
                assert_many_matches_single(&t, &[2], &params, workers);
            }
        }
        assert!(proximity_from_many(&TransitionMatrix::new(&g), &[], &params, 2, |_, _, _| ())
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn many_rejects_out_of_range_node() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        proximity_from_many(&t, &[1, 99], &RwrParams::default(), 1, |_, _, _| ());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_node() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        proximity_from(&t, 99, &RwrParams::default());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized_restart() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        personalized_pagerank(&t, &[0.5; 6], &RwrParams::default());
    }
}
