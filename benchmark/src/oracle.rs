//! The sampled exact-membership oracle.
//!
//! For a read's answer it samples answer members and non-members with
//! `p_u(q) > 0`, recomputes each sampled `p_u` with an exact forward solve
//! and applies `brute_force_reverse_topk`'s rule: `u` belongs to the answer
//! when `p_u(q) > ε` and `p_u(q) ≥ p̂_u(k) − ε`, with `ε = TIE_EPSILON`.

use crate::workload::Rng;
use rtk_core::ReverseTopkEngine;
use rtk_graph::NodeId;
use rtk_query::query::TIE_EPSILON;
use rtk_sparse::dense::kth_largest;

/// What one oracle pass over one answer found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    pub checks: u64,
    pub mismatches: u64,
}

/// Checks `per_side` sampled members of `answer` (ascending node ids of the
/// reverse top-`k` of `q`) and `per_side` sampled non-members that reach
/// `q`, against the engine's current graph.
pub fn check(
    engine: &ReverseTopkEngine,
    q: u32,
    k: usize,
    answer: &[u32],
    per_side: usize,
    rng: &mut Rng,
) -> Checked {
    let to_q = engine.proximities_to(NodeId(q)).expect("query node in range");
    let outside: Vec<u32> = (0..to_q.len() as u32)
        .filter(|u| to_q[*u as usize] > 0.0 && answer.binary_search(u).is_err())
        .collect();
    let mut sampled = rng.sample(answer, per_side);
    sampled.extend(rng.sample(&outside, per_side));
    let mut out = Checked::default();
    for u in sampled {
        let p = engine.proximities_from(NodeId(u)).expect("sampled node in range");
        let kth = kth_largest(&p, k);
        let member = p[q as usize] > TIE_EPSILON && p[q as usize] >= kth - TIE_EPSILON;
        out.checks += 1;
        if member != answer.binary_search(&u).is_ok() {
            out.mismatches += 1;
        }
    }
    out
}
