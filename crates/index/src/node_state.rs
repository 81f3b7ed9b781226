//! One column of the index: resumable BCA state + top-K lower bounds.

use crate::hub_matrix::{HubMatrix, Materializer};
use rtk_rwr::bca::{BcaEngine, BcaSnapshot, BcaStop};
use rtk_sparse::DescendingTopK;

/// Per-node index entry (`p̂^t_u(1:K)` plus the `r`, `w`, `s` state needed to
/// resume its BCA — Alg. 1's output for one node).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeState {
    snapshot: BcaSnapshot,
    lower_bounds: DescendingTopK,
    /// Cached `‖r‖₁`.
    residue_norm: f64,
    /// Cached `Σ_h s(h)·d_h` (hub mass deficits weighted by parked ink).
    parked_deficit: f64,
}

impl NodeState {
    /// Assembles a state from a snapshot, computing the top-K bounds and
    /// caches via `materializer`.
    pub fn from_snapshot(
        snapshot: BcaSnapshot,
        hub_matrix: &HubMatrix,
        materializer: &mut Materializer,
        max_k: usize,
    ) -> Self {
        let (lower_bounds, parked_deficit) =
            materialize_bounds(&snapshot, hub_matrix, materializer, max_k);
        let residue_norm = snapshot.residue_norm();
        Self { snapshot, lower_bounds, residue_norm, parked_deficit }
    }

    /// Reassembles a state from stored parts without re-materializing
    /// (used by [`crate::storage`]; the top-K list was persisted).
    pub(crate) fn from_parts(
        snapshot: BcaSnapshot,
        lower_bounds: DescendingTopK,
        hub_matrix: &HubMatrix,
    ) -> Self {
        let residue_norm = snapshot.residue_norm();
        let parked_deficit = hub_matrix.parked_deficit(&snapshot.hub_ink);
        Self { snapshot, lower_bounds, residue_norm, parked_deficit }
    }

    /// The resumable BCA snapshot (`r`, `w`, `s`, iteration count).
    #[inline]
    pub fn snapshot(&self) -> &BcaSnapshot {
        &self.snapshot
    }

    /// Descending top-K lower bounds `p̂^t_u(1:K)`.
    #[inline]
    pub fn lower_bounds(&self) -> &DescendingTopK {
        &self.lower_bounds
    }

    /// Lower bound `lb^t_u = p̂^t_u(k)` on the k-th largest proximity.
    #[inline]
    pub fn kth_lower_bound(&self, k: usize) -> f64 {
        self.lower_bounds.kth_value(k)
    }

    /// Cached `‖r‖₁` — the paper's notion of remaining ink.
    #[inline]
    pub fn residue_norm(&self) -> f64 {
        self.residue_norm
    }

    /// Cached `Σ_h s(h)·d_h` — mass hidden by hub rounding/truncation.
    #[inline]
    pub fn parked_deficit(&self) -> f64 {
        self.parked_deficit
    }

    /// The mass that may still be added to any proximity entries:
    /// `‖r‖₁` alone (paper-faithful) or `‖r‖₁ + Σ s(h)·d_h` (strict).
    #[inline]
    pub fn residual_mass(&self, strict: bool) -> f64 {
        if strict {
            self.residue_norm + self.parked_deficit
        } else {
            self.residue_norm
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.snapshot.heap_bytes() + self.lower_bounds.heap_bytes() + 2 * 8
    }

    /// The parts of this state derived from the hub matrix — the top-K
    /// bounds and the parked-deficit cache — recomputed against
    /// `hub_matrix`, with the snapshot left as it is. Install them with
    /// [`Self::set_materialized`].
    pub(crate) fn rematerialized(
        &self,
        hub_matrix: &HubMatrix,
        materializer: &mut Materializer,
    ) -> (DescendingTopK, f64) {
        materialize_bounds(&self.snapshot, hub_matrix, materializer, self.lower_bounds.capacity())
    }

    /// Installs bounds from [`Self::rematerialized`].
    pub(crate) fn set_materialized(
        &mut self,
        (lower_bounds, parked_deficit): (DescendingTopK, f64),
    ) {
        self.lower_bounds = lower_bounds;
        self.parked_deficit = parked_deficit;
    }
}

/// Top-K bounds and `Σ_h s(h)·d_h` of `snapshot` against `hub_matrix`.
fn materialize_bounds(
    snapshot: &BcaSnapshot,
    hub_matrix: &HubMatrix,
    materializer: &mut Materializer,
    max_k: usize,
) -> (DescendingTopK, f64) {
    let top = materializer.top_k(snapshot, hub_matrix, max_k);
    (DescendingTopK::from_sorted(top, max_k), hub_matrix.parked_deficit(&snapshot.hub_ink))
}

/// Runs `stop`-bounded refinement on `state` (Alg. 1 lines 6–8 resumed):
/// advances the BCA snapshot, rematerializes the top-K lower bounds, and
/// refreshes the caches. Returns the iterations executed.
///
/// Both query modes share this: `no-update` refines a cloned state, `update`
/// refines the index's state in place.
pub fn refine_state(
    state: &mut NodeState,
    transition: &rtk_graph::TransitionMatrix<'_>,
    engine: &mut BcaEngine,
    hub_matrix: &HubMatrix,
    materializer: &mut Materializer,
    stop: &BcaStop,
) -> u32 {
    let executed = engine.resume(transition, &mut state.snapshot, stop);
    if executed > 0 {
        let bounds = state.rematerialized(hub_matrix, materializer);
        state.set_materialized(bounds);
        state.residue_norm = state.snapshot.residue_norm();
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HubSolver;
    use rtk_graph::{DanglingPolicy, DiGraph, GraphBuilder, TransitionMatrix};
    use rtk_rwr::bca::PropagationStrategy;
    use rtk_rwr::{BcaParams, HubSet, RwrParams};

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

    fn setup(t: &TransitionMatrix<'_>) -> (HubMatrix, BcaEngine, Materializer) {
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(
            t,
            hubs.clone(),
            &HubSolver::PowerMethod(RwrParams::default()),
            0.0,
            1,
        );
        let engine =
            BcaEngine::new(hubs, BcaParams::default(), PropagationStrategy::BatchThreshold);
        (m, engine, Materializer::new(6))
    }

    #[test]
    fn state_computes_bounds_and_caches() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        let state = NodeState::from_snapshot(snap.clone(), &m, &mut mat, 3);
        assert!((state.residue_norm() - snap.residue_norm()).abs() < 1e-15);
        assert_eq!(state.lower_bounds().len(), 3);
        assert!(state.kth_lower_bound(1) >= state.kth_lower_bound(3));
        // Paper-faithful vs strict residuals agree when ω = 0 and hubs are PM-exact.
        assert!((state.residual_mass(true) - state.residual_mass(false)).abs() < 1e-8);
    }

    #[test]
    fn refine_tightens_bounds_monotonically() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 3, &BcaStop { residue_norm: 0.8, max_iterations: 1 });
        let mut state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        let mut prev_lb = state.kth_lower_bound(2);
        let mut prev_res = state.residue_norm();
        for _ in 0..10 {
            let ran =
                refine_state(&mut state, &t, &mut engine, &m, &mut mat, &BcaStop::one_iteration());
            if ran == 0 {
                break;
            }
            assert!(state.kth_lower_bound(2) >= prev_lb - 1e-15, "lower bound regressed");
            assert!(state.residue_norm() <= prev_res + 1e-15, "residue grew");
            prev_lb = state.kth_lower_bound(2);
            prev_res = state.residue_norm();
        }
        assert!(state.residue_norm() < 0.8);
    }

    #[test]
    fn refine_to_exhaustion_matches_exact_topk() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let (m, mut engine, mut mat) = setup(&t);
        let snap = engine.run_from(&t, 4, &BcaStop { residue_norm: 0.5, max_iterations: 2 });
        let mut state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        refine_state(
            &mut state,
            &t,
            &mut engine,
            &m,
            &mut mat,
            &BcaStop { residue_norm: 1e-12, max_iterations: 1_000_000 },
        );
        let exact = rtk_rwr::exact::proximity_matrix_dense(&t, 0.15);
        let mut col: Vec<f64> = exact[4].clone();
        col.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for k in 1..=3 {
            assert!(
                (state.kth_lower_bound(k) - col[k - 1]).abs() < 1e-8,
                "k={k}: {} vs {}",
                state.kth_lower_bound(k),
                col[k - 1]
            );
        }
        assert!(state.residual_mass(true) < 1e-8);
    }

    #[test]
    fn strict_residual_exceeds_paper_residual_under_rounding() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let hubs = HubSet::from_ids(6, vec![0, 1]);
        let m = HubMatrix::build(
            &t,
            hubs.clone(),
            &HubSolver::PowerMethod(RwrParams::default()),
            0.1, // aggressive rounding
            1,
        );
        let mut engine =
            BcaEngine::new(hubs, BcaParams::default(), PropagationStrategy::BatchThreshold);
        let mut mat = Materializer::new(6);
        let snap = engine.run_from(&t, 2, &BcaStop { residue_norm: 0.1, max_iterations: 100 });
        assert!(!snap.hub_ink.is_empty(), "test premise: some ink parked at hubs");
        let state = NodeState::from_snapshot(snap, &m, &mut mat, 3);
        assert!(state.residual_mass(true) > state.residual_mass(false));
        assert!(state.parked_deficit() > 0.0);
    }
}
