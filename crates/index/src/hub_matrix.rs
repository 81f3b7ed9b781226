//! The hub proximity matrix `P_H` with rounding and deficit tracking
//! (paper §4.1.3).
//!
//! Each hub's exact proximity vector is computed once, rounded by zeroing
//! entries `≤ ω`, and stored sparsely. Rounding preserves the lower-bound
//! property of everything materialized from `P_H` (rounded values are `≤`
//! exact values elementwise — the paper's Prop. 1/2 carry over, as it notes).
//!
//! [`HubMatrix::build`] and [`HubMatrix::recompute_columns`] share one
//! column-solve path. Power-method columns (Eq. 12) are solved several at
//! a time: each pool worker keeps [`rtk_rwr::power::LANES`] iterates
//! lane-interleaved (`x[v·W + j]`) and advances all of them with one sweep
//! over the in-edges ([`TransitionMatrix::apply_forward_lanes`]), so an
//! edge's index and weight are loaded once for `W` columns. The result is
//! still bit for bit what one [`rtk_rwr::proximity_from`] per hub gives:
//!
//! * **per-lane serial order** — each lane has its own accumulator, fed the
//!   same products in the same edge order as `gather_dot`, and the restart
//!   term is added as the single-source apply adds it;
//! * **per-lane stop rule** — each lane counts its own iterations and sums
//!   its own `Σ|x−y|` in node order, stopping at `< ε` or the iteration
//!   cap, exactly like the single-source solve;
//! * **refill** — a stopped lane emits its column and takes the next hub
//!   from a counter shared by the workers; the column lands in its hub's
//!   slot, so neither the worker count nor the order in which lanes stop
//!   can change the matrix.
//!
//! Beyond the paper, each hub records its **mass deficit**
//! `d_h = 1 − ‖stored p_h‖₁`: the proximity mass lost to rounding plus any
//! solver truncation. A unit of ink parked at hub `h` can still deliver up to
//! `d_h` of future proximity anywhere, so sound upper bounds must treat
//! `Σ_h s(h)·d_h` as additional residue (`BoundMode::Strict` in the query
//! crate uses exactly this).

use crate::config::HubSolver;
use rtk_graph::TransitionMatrix;
use rtk_rwr::bca::{BcaEngine, BcaSnapshot, BcaStop, PropagationStrategy};
use rtk_rwr::{proximity_from_many, HubSet};
use rtk_sparse::{top_k_in_place, EpochScratch, SparseVector, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sparse, rounded hub proximity vectors plus per-hub deficits.
#[derive(Clone, Debug, PartialEq)]
pub struct HubMatrix {
    hubs: HubSet,
    /// `columns[i]` is the rounded `p_h` for `hubs.ids()[i]`.
    columns: Vec<SparseVector>,
    /// `deficits[i] = 1 − ‖columns[i]‖₁ ≥ 0`.
    deficits: Vec<f64>,
    /// Entries each column held *before* rounding (for Table 2's
    /// "no rounding" space accounting).
    unrounded_nnz: Vec<usize>,
    /// The rounding threshold `ω` the columns were built with.
    rounding_threshold: f64,
}

impl HubMatrix {
    /// Computes all hub vectors with `solver`, rounds them at `ω`, and
    /// records deficits. Hub computations are spread over `threads` workers.
    pub fn build(
        transition: &TransitionMatrix<'_>,
        hubs: HubSet,
        solver: &HubSolver,
        rounding_threshold: f64,
        threads: usize,
    ) -> Self {
        let mut columns = Vec::with_capacity(hubs.len());
        let mut deficits = Vec::with_capacity(hubs.len());
        let mut unrounded_nnz = Vec::with_capacity(hubs.len());
        for (col, deficit, nnz) in
            solve_columns(transition, hubs.ids(), solver, rounding_threshold, threads)
        {
            columns.push(col);
            deficits.push(deficit);
            unrounded_nnz.push(nnz);
        }
        Self { hubs, columns, deficits, unrounded_nnz, rounding_threshold }
    }

    /// Reassembles a matrix from stored parts (used by [`crate::storage`]).
    pub(crate) fn from_parts(
        hubs: HubSet,
        columns: Vec<SparseVector>,
        deficits: Vec<f64>,
        unrounded_nnz: Vec<usize>,
        rounding_threshold: f64,
    ) -> Self {
        assert_eq!(hubs.len(), columns.len());
        assert_eq!(hubs.len(), deficits.len());
        assert_eq!(hubs.len(), unrounded_nnz.len());
        Self { hubs, columns, deficits, unrounded_nnz, rounding_threshold }
    }

    /// The hub set.
    #[inline]
    pub fn hubs(&self) -> &HubSet {
        &self.hubs
    }

    /// Number of hubs.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.columns.len()
    }

    /// The rounding threshold `ω` used at build time.
    #[inline]
    pub fn rounding_threshold(&self) -> f64 {
        self.rounding_threshold
    }

    /// Recomputes the columns of the given hub `ids` in place (incremental
    /// edge updates, [`crate::update`]). Every id must be a hub of this
    /// matrix. Each column goes through the exact per-column computation of
    /// [`Self::build`] — same solver, same rounding, same deficit formula —
    /// so a column recomputed here is bitwise-identical to the one a
    /// from-scratch build against the same transition matrix produces.
    /// Returns the number of columns recomputed.
    ///
    /// # Panics
    /// Panics if an id is not a hub of this matrix.
    pub fn recompute_columns(
        &mut self,
        transition: &TransitionMatrix<'_>,
        ids: &[u32],
        solver: &HubSolver,
        threads: usize,
    ) -> usize {
        let positions: Vec<usize> = ids
            .iter()
            .map(|&h| self.hubs.position(h).expect("recompute_columns id is not a hub"))
            .collect();
        let columns = solve_columns(transition, ids, solver, self.rounding_threshold, threads);
        for (p, (col, deficit, nnz)) in positions.into_iter().zip(columns) {
            self.columns[p] = col;
            self.deficits[p] = deficit;
            self.unrounded_nnz[p] = nnz;
        }
        ids.len()
    }

    /// Rounded proximity vector of hub `node`, or `None` if not a hub.
    pub fn column(&self, node: u32) -> Option<&SparseVector> {
        self.hubs.position(node).map(|i| &self.columns[i])
    }

    /// Mass deficit `d_h` of hub `node` (0 for non-hubs).
    pub fn deficit(&self, node: u32) -> f64 {
        self.hubs.position(node).map_or(0.0, |i| self.deficits[i])
    }

    /// `Σ_h s(h)·d_h` — the extra residual mass hidden in parked hub ink.
    pub fn parked_deficit(&self, hub_ink: &SparseVector) -> f64 {
        hub_ink
            .iter()
            .map(|(h, s)| s * self.hubs.position(h).map_or(0.0, |i| self.deficits[i]))
            .sum()
    }

    /// Stored entries across all columns (after rounding).
    pub fn nnz(&self) -> usize {
        self.columns.iter().map(|c| c.nnz()).sum()
    }

    /// Entries across all columns before rounding.
    pub fn unrounded_nnz(&self) -> usize {
        self.unrounded_nnz.iter().sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum::<usize>()
            + self.deficits.len() * std::mem::size_of::<f64>()
    }

    /// Theorem 1's predicted storage (bytes) for the hub part given the
    /// power-law exponent `β`: `(1−β)^{1/β}·|H|·ω^{−1/β}·n^{1−1/β}` entries
    /// of 12 bytes (u32 index + f64 value). Returns `None` when `ω = 0`.
    pub fn predicted_bytes(&self, n: usize, beta: f64) -> Option<usize> {
        if self.rounding_threshold <= 0.0 || !(0.0..1.0).contains(&beta) || beta == 0.0 {
            return None;
        }
        let omega = self.rounding_threshold;
        let entries_per_hub = (1.0 - beta).powf(1.0 / beta)
            * omega.powf(-1.0 / beta)
            * (n as f64).powf(1.0 - 1.0 / beta);
        let entries = entries_per_hub * self.hub_count() as f64;
        Some((entries.min(1e15) * 12.0) as usize)
    }
}

/// One computed hub column: `(rounded vector, deficit, unrounded nnz)`.
type HubColumn = (SparseVector, f64, usize);

/// Computes the columns of hubs `ids`, in order, over `threads` pool
/// workers — the one column-solve path under [`HubMatrix::build`] and
/// [`HubMatrix::recompute_columns`]. Power-method columns come from the
/// blocked multi-source solver ([`proximity_from_many`], bitwise equal to a
/// [`rtk_rwr::proximity_from`] per hub); BCA columns from one exhaustive run
/// per hub, hubs pulled off a shared counter. Either way each column lands
/// in its own slot, so scheduling cannot change the matrix.
fn solve_columns(
    transition: &TransitionMatrix<'_>,
    ids: &[u32],
    solver: &HubSolver,
    rounding_threshold: f64,
    threads: usize,
) -> Vec<HubColumn> {
    match solver {
        HubSolver::PowerMethod(params) => {
            proximity_from_many(transition, ids, params, threads, |_, dense, _| {
                round_column(SparseVector::from_dense(dense, 0.0), rounding_threshold)
            })
        }
        HubSolver::Bca(params) => {
            let n = transition.node_count();
            let stop = BcaStop::from_params(params);
            let next = AtomicUsize::new(0);
            let results = Mutex::new(Vec::<Vec<(usize, HubColumn)>>::new());
            WorkerPool::global().scope(|scope| {
                for _ in 0..threads.max(1).min(ids.len()) {
                    let (next, results, stop) = (&next, &results, &stop);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= ids.len() {
                                break;
                            }
                            let mut engine = BcaEngine::new(
                                HubSet::empty(n),
                                *params,
                                PropagationStrategy::BatchThreshold,
                            );
                            let snap = engine.run_from(transition, ids[i], stop);
                            local.push((i, round_column(snap.retained, rounding_threshold)));
                        }
                        results.lock().expect("hub results poisoned").push(local);
                    });
                }
            });
            let mut slots: Vec<Option<HubColumn>> = vec![None; ids.len()];
            for chunk in results.into_inner().expect("hub results poisoned") {
                for (i, col) in chunk {
                    slots[i] = Some(col);
                }
            }
            slots.into_iter().map(|s| s.expect("hub column missing")).collect()
        }
    }
}

/// Rounds a solved hub vector at `ω` and records its deficit.
fn round_column(mut vector: SparseVector, rounding_threshold: f64) -> HubColumn {
    let unrounded = vector.nnz();
    if rounding_threshold > 0.0 {
        vector.round_below(rounding_threshold);
    }
    // Deficit folds in both rounding loss and any solver truncation.
    let deficit = (1.0 - vector.sum()).max(0.0);
    (vector, deficit, unrounded)
}

/// Reusable materializer for `p^t_u = w^t_u + P_H·s^t_u` (Eq. 7).
///
/// Owns a dense epoch scratch sized to the graph, a plain dense accumulator
/// and a selection buffer; one instance per worker thread (index build,
/// update sweeps) or per query session.
#[derive(Clone, Debug)]
pub struct Materializer {
    scratch: EpochScratch,
    /// Accumulator of the dense branch; all `+0.0` between calls (allocated
    /// on first use).
    dense: Vec<f64>,
    /// Candidate pairs handed to the top-K selection, reused across calls.
    selection: Vec<(u32, f64)>,
}

impl Materializer {
    /// Creates a materializer for graphs of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Self { scratch: EpochScratch::new(node_count), dense: Vec::new(), selection: Vec::new() }
    }

    /// Materializes the lower-bound vector of `snapshot` and returns the
    /// scratch holding it (valid until the next call).
    pub fn materialize(&mut self, snapshot: &BcaSnapshot, hub_matrix: &HubMatrix) -> &EpochScratch {
        self.scratch.reset();
        snapshot.retained.scatter_into(1.0, &mut self.scratch);
        for (h, s) in snapshot.hub_ink.iter() {
            hub_column(hub_matrix, h).scatter_into(s, &mut self.scratch);
        }
        &self.scratch
    }

    /// Materializes and selects the descending top-`k` entries (positive
    /// values only; ties broken by smaller id).
    ///
    /// Two branches, chosen by the scatter work `nnz(w) + Σ_h nnz(p_h)`:
    /// below `n` the epoch scratch touches only what the scatter reaches;
    /// at `n` or more a plain dense accumulator is cheaper, since the
    /// scatter already costs as much as one pass over all `n` slots and the
    /// dense adds skip the epoch bookkeeping. Both add every entry's terms
    /// in the same order (`w`, then hub columns in ascending hub id), and
    /// the first add into a slot is exact either way (`0.0 + x == x` for the
    /// non-negative terms here), so the branches agree bit for bit.
    pub fn top_k(
        &mut self,
        snapshot: &BcaSnapshot,
        hub_matrix: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        if scatter_work(snapshot, hub_matrix) >= self.scratch.len() {
            self.top_k_dense(snapshot, hub_matrix, k)
        } else {
            self.top_k_epoch(snapshot, hub_matrix, k)
        }
    }

    fn top_k_epoch(
        &mut self,
        snapshot: &BcaSnapshot,
        hub_matrix: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        self.materialize(snapshot, hub_matrix);
        self.selection.clear();
        self.selection.extend(self.scratch.iter_touched().filter(|&(_, v)| v > 0.0));
        top_k_in_place(&mut self.selection, k)
    }

    fn top_k_dense(
        &mut self,
        snapshot: &BcaSnapshot,
        hub_matrix: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        self.dense.resize(self.scratch.len(), 0.0);
        let dense = &mut self.dense;
        // `scatter_into(1.0, ..)` adds `1.0 * v`, which is `v` bit for bit.
        for (i, v) in snapshot.retained.iter() {
            dense[i as usize] += v;
        }
        for (h, s) in snapshot.hub_ink.iter() {
            for (i, v) in hub_column(hub_matrix, h).iter() {
                dense[i as usize] += s * v;
            }
        }
        // One pass collects the candidates and re-zeroes the accumulator.
        self.selection.clear();
        for (i, slot) in dense.iter_mut().enumerate() {
            let v = std::mem::take(slot);
            if v > 0.0 {
                self.selection.push((i as u32, v));
            }
        }
        top_k_in_place(&mut self.selection, k)
    }
}

/// The stored column of hub `h`, which a snapshot's hub ink may name only if
/// it is a hub of `hub_matrix`.
fn hub_column(hub_matrix: &HubMatrix, h: u32) -> &SparseVector {
    hub_matrix
        .column(h)
        .expect("hub ink parked at a node missing from the hub matrix")
}

/// Entries a materialization of `snapshot` scatters: `nnz(w) + Σ_h nnz(p_h)`
/// over the hubs holding ink.
fn scatter_work(snapshot: &BcaSnapshot, hub_matrix: &HubMatrix) -> usize {
    snapshot.retained.nnz()
        + snapshot
            .hub_ink
            .indices()
            .iter()
            .map(|&h| hub_column(hub_matrix, h).nnz())
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder};
    use rtk_rwr::{BcaParams, RwrParams};

    fn toy() -> DiGraph {
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

    fn pm_solver() -> HubSolver {
        HubSolver::PowerMethod(RwrParams::default())
    }

    #[test]
    fn power_method_hubs_have_tiny_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 0.0, 1);
        assert_eq!(m.hub_count(), 2);
        for &h in [0u32, 1].iter() {
            assert!(m.deficit(h) < 1e-8, "deficit {}", m.deficit(h));
            let col = m.column(h).unwrap();
            assert!((col.sum() - 1.0).abs() < 1e-8);
        }
        assert_eq!(m.deficit(3), 0.0);
        assert!(m.column(3).is_none());
    }

    #[test]
    fn rounding_removes_mass_into_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let coarse = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 0.1, 1);
        let fine = HubMatrix::build(&t, hubs, &pm_solver(), 0.0, 1);
        assert!(coarse.nnz() < fine.nnz());
        assert!(coarse.deficit(1) > 0.0);
        let sum_plus_deficit = coarse.column(1).unwrap().sum() + coarse.deficit(1);
        assert!((sum_plus_deficit - 1.0).abs() < 1e-8);
        assert_eq!(coarse.unrounded_nnz(), fine.nnz());
    }

    #[test]
    fn rounded_columns_lower_bound_exact_columns() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let rounded = HubMatrix::build(&t, hubs, &pm_solver(), 0.05, 1);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        for &h in [0u32, 1].iter() {
            let col = rounded.column(h).unwrap().to_dense(6);
            for v in 0..6 {
                assert!(col[v] <= exact[h as usize][v] + 1e-9);
            }
        }
    }

    #[test]
    fn bca_solver_tracks_truncation_deficit() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![1]);
        let coarse_bca = BcaParams { residue_threshold: 0.05, ..Default::default() };
        let m = HubMatrix::build(&t, hubs, &HubSolver::Bca(coarse_bca), 0.0, 1);
        let d = m.deficit(1);
        assert!(d > 1e-4 && d <= 0.05 + 1e-9, "deficit {d}");
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(200, 800, 3)).unwrap();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::degree_based(&g, 10);
        let serial = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 1e-6, 1);
        let parallel = HubMatrix::build(&t, hubs, &pm_solver(), 1e-6, 4);
        assert_eq!(serial, parallel);
    }

    /// A hub column as bits: `(entries, deficit, unrounded nnz)`.
    type ColumnBits = (Vec<(u32, u64)>, u64, usize);

    /// Hub columns the per-hub way: `proximity_from`, dropped zeros,
    /// `round_below(ω)` and `1 − Σ` clamped at zero.
    fn reference_columns(
        t: &TransitionMatrix<'_>,
        ids: &[u32],
        params: &RwrParams,
        omega: f64,
    ) -> Vec<ColumnBits> {
        ids.iter()
            .map(|&h| {
                let (dense, _) = rtk_rwr::proximity_from(t, h, params);
                let mut col = SparseVector::from_dense(&dense, 0.0);
                let unrounded = col.nnz();
                if omega > 0.0 {
                    col.round_below(omega);
                }
                let deficit = (1.0 - col.sum()).max(0.0);
                (col.iter().map(|(i, v)| (i, v.to_bits())).collect(), deficit.to_bits(), unrounded)
            })
            .collect()
    }

    fn stored_columns(m: &HubMatrix, ids: &[u32]) -> Vec<ColumnBits> {
        ids.iter()
            .map(|&h| {
                let p = m.hubs().position(h).unwrap();
                let col = m.column(h).unwrap();
                (
                    col.iter().map(|(i, v)| (i, v.to_bits())).collect(),
                    m.deficit(h).to_bits(),
                    m.unrounded_nnz[p],
                )
            })
            .collect()
    }

    #[test]
    fn build_and_recompute_match_per_hub_power_method_bitwise() {
        let g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(300, 1_500, 8)).unwrap();
        let hubs = HubSet::degree_based(&g, 12);
        assert!(hubs.len() > rtk_rwr::power::LANES, "test premise: lanes refill");
        let ids = hubs.ids().to_vec();
        let params = RwrParams::default();
        for t in [TransitionMatrix::new(&g), TransitionMatrix::new_kernelized(&g)] {
            for omega in [0.0, 1e-6] {
                let want = reference_columns(&t, &ids, &params, omega);
                for threads in [1, 2] {
                    let built = HubMatrix::build(&t, hubs.clone(), &pm_solver(), omega, threads);
                    assert_eq!(stored_columns(&built, &ids), want, "build ω={omega} t={threads}");
                    // Recompute a subset, out of hub order, into a matrix
                    // whose columns were emptied first.
                    let subset: Vec<u32> = ids.iter().rev().step_by(2).copied().collect();
                    let mut m = built.clone();
                    for &h in &subset {
                        let p = m.hubs().position(h).unwrap();
                        m.columns[p] = SparseVector::new();
                        m.deficits[p] = 1.0;
                        m.unrounded_nnz[p] = 0;
                    }
                    assert_eq!(
                        m.recompute_columns(&t, &subset, &pm_solver(), threads),
                        subset.len()
                    );
                    assert_eq!(m, built, "recompute ω={omega} t={threads}");
                }
            }
        }
    }

    #[test]
    fn parked_deficit_weights_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 0.1, 1);
        let ink = SparseVector::from_parts(vec![0, 1], vec![0.5, 0.25]);
        let expected = 0.5 * m.deficit(0) + 0.25 * m.deficit(1);
        assert!((m.parked_deficit(&ink) - expected).abs() < 1e-15);
    }

    #[test]
    fn materializer_combines_retained_and_hub_ink() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs.clone(), &pm_solver(), 0.0, 1);
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);

        // Exhaustive BCA from node 2 with hubs; materialized vector must be p_2.
        let mut engine =
            BcaEngine::new(hubs, BcaParams::exhaustive(0.15), PropagationStrategy::BatchThreshold);
        let snap =
            engine.run_from(&t, 2, &BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 });
        let mut mat = Materializer::new(6);
        let scratch = mat.materialize(&snap, &m);
        for (v, &expected) in exact[2].iter().enumerate() {
            assert!(
                (scratch.get(v) - expected).abs() < 1e-8,
                "v={v}: {} vs {expected}",
                scratch.get(v)
            );
        }
        let top2 = mat.top_k(&snap, &m, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, 1); // p_3 (paper) peaks at node 2 (1-based)
        assert!(top2[0].1 >= top2[1].1);
    }

    /// A random hub matrix over `n` nodes (columns from [`random_sparse`]).
    fn random_hub_matrix(rng: &mut StdRng, n: usize, hub_count: usize) -> HubMatrix {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(rng);
        ids.truncate(hub_count);
        let hubs = HubSet::from_ids(n, ids);
        let columns: Vec<SparseVector> = (0..hubs.len())
            .map(|_| {
                let nnz = rng.gen_range(0..n / 3);
                random_sparse(rng, n, nnz)
            })
            .collect();
        let deficits = columns.iter().map(|c| (1.0 - c.sum()).max(0.0)).collect();
        let nnz = columns.iter().map(|c| c.nnz()).collect();
        HubMatrix::from_parts(hubs, columns, deficits, nnz, 0.0)
    }

    /// A positive value: half the time from a coarse grid (so sums tie),
    /// half the time a full-precision fraction (so summation order shows
    /// in the low bits).
    fn random_value(rng: &mut StdRng, scale: f64) -> f64 {
        if rng.gen_bool(0.5) {
            scale * f64::from(rng.gen_range(1..8u32)) / 8.0
        } else {
            scale * (1e-3 + rng.gen::<f64>())
        }
    }

    /// `nnz` distinct random indices below `n` with [`random_value`]s.
    fn random_sparse(rng: &mut StdRng, n: usize, nnz: usize) -> SparseVector {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.shuffle(rng);
        idx.truncate(nnz);
        idx.sort_unstable();
        let values = idx.iter().map(|_| random_value(rng, 1.0 / 8.0)).collect();
        SparseVector::from_parts(idx, values)
    }

    /// A snapshot whose hub ink covers `inked` hubs and whose retained
    /// vector has `retained_nnz` entries.
    fn random_snapshot(
        rng: &mut StdRng,
        m: &HubMatrix,
        inked: &[u32],
        retained_nnz: usize,
    ) -> BcaSnapshot {
        let n = m.hubs().node_count();
        let mut hubs = inked.to_vec();
        hubs.sort_unstable();
        let ink = hubs.iter().map(|_| random_value(rng, 0.5)).collect();
        BcaSnapshot {
            source: 0,
            iterations: 1,
            residue: SparseVector::new(),
            retained: random_sparse(rng, n, retained_nnz),
            hub_ink: SparseVector::from_parts(hubs, ink),
        }
    }

    fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
        top.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// Runs both branches and the dispatching entry point on `snap`; all
    /// three must agree bit for bit. Returns the dispatched result.
    fn assert_branches_agree(
        mat: &mut Materializer,
        snap: &BcaSnapshot,
        m: &HubMatrix,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let dense = mat.top_k_dense(snap, m, k);
        let epoch = mat.top_k_epoch(snap, m, k);
        let dispatched = mat.top_k(snap, m, k);
        assert_eq!(bits(&dense), bits(&epoch), "dense vs epoch, k={k}");
        assert_eq!(bits(&dispatched), bits(&epoch), "dispatch vs epoch, k={k}");
        dispatched
    }

    #[test]
    fn dense_and_epoch_materializers_agree_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x6d61_7465);
        for case in 0..60 {
            let n = rng.gen_range(8..64usize);
            let hub_count = rng.gen_range(0..n / 4 + 1);
            let m = random_hub_matrix(&mut rng, n, hub_count);
            let hub_ids = m.hubs().ids().to_vec();
            let mut mat = Materializer::new(n);
            let inked: Vec<u32> = hub_ids.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let retained_nnz = rng.gen_range(0..n);
            let snap = random_snapshot(&mut rng, &m, &inked, retained_nnz);
            let support = {
                let mut dense = vec![0.0; n];
                for (i, v) in snap.retained.iter() {
                    dense[i as usize] += v;
                }
                for (h, s) in snap.hub_ink.iter() {
                    for (i, v) in m.column(h).unwrap().iter() {
                        dense[i as usize] += s * v;
                    }
                }
                dense.iter().filter(|&&v| v > 0.0).count()
            };
            for k in [0, 1, 3, support, support + 5] {
                let top = assert_branches_agree(&mut mat, &snap, &m, k);
                assert_eq!(top.len(), k.min(support), "case {case}, k={k}");
            }
            // Empty hub ink: the retained vector alone.
            let bare = random_snapshot(&mut rng, &m, &[], retained_nnz);
            assert_branches_agree(&mut mat, &bare, &m, 4);
        }
    }

    #[test]
    fn materializer_switches_to_dense_at_n_scatter_entries() {
        let mut rng = StdRng::seed_from_u64(0x7363_6174);
        let n = 40;
        let m = random_hub_matrix(&mut rng, n, 4);
        let inked: Vec<u32> = m.hubs().ids().iter().copied().take(2).collect();
        let hub_work: usize = inked.iter().map(|&h| m.column(h).unwrap().nnz()).sum();
        assert!(hub_work < n - 1, "test premise: room for retained entries");
        for (work, dense_expected) in [(n - 1, false), (n, true)] {
            let snap = random_snapshot(&mut rng, &m, &inked, work - hub_work);
            assert_eq!(scatter_work(&snap, &m), work);
            let mut mat = Materializer::new(n);
            assert_branches_agree(&mut mat, &snap, &m, 6);
            let mut fresh = Materializer::new(n);
            fresh.top_k(&snap, &m, 6);
            // The dense accumulator is allocated by the dense branch only.
            assert_eq!(!fresh.dense.is_empty(), dense_expected, "scatter work {work}");
        }
    }

    #[test]
    fn empty_hub_set_builds_empty_matrix() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let m = HubMatrix::build(&t, HubSet::empty(6), &pm_solver(), 1e-6, 4);
        assert_eq!(m.hub_count(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.parked_deficit(&SparseVector::new()), 0.0);
    }

    #[test]
    fn theorem1_prediction_behaves() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(&t, hubs, &pm_solver(), 1e-6, 1);
        let p = m.predicted_bytes(6, 0.76).unwrap();
        assert!(p > 0);
        // Smaller ω ⇒ more predicted entries.
        let g2 = toy();
        let t2 = TransitionMatrix::new(&g2);
        let m2 = HubMatrix::build(&t2, HubSet::from_ids(6, vec![0, 1]), &pm_solver(), 1e-8, 1);
        assert!(m2.predicted_bytes(6, 0.76).unwrap() > p);
        // ω = 0 has no finite prediction.
        let m3 = HubMatrix::build(&t2, HubSet::from_ids(6, vec![0]), &pm_solver(), 0.0, 1);
        assert!(m3.predicted_bytes(6, 0.76).is_none());
    }
}
