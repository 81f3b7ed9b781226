//! Incremental edge updates — tiered invalidation.
//!
//! An edge update `u → v` (insert, weight change, or removal) renormalizes
//! exactly one row of the transition matrix: `u`'s out-row. The only walks
//! whose probabilities change are those that *visit `u`*, so the only index
//! entries that can change are those of nodes that can reach `u` along
//! out-edges — the **affected set** [`affected_set`], computed as a BFS from
//! `u` over in-edges. Everything outside that set is untouched *bitwise*:
//!
//! * A BCA run from an unaffected `q` never places residue on `u`, so it
//!   never reads the mutated row and replays the exact same pushes.
//! * A hub column `p_h` with `h` unaffected: walks from `h` never traverse
//!   `u`'s out-edges (`x[u]` stays `+0.0`), and inserting a `p·0.0 = +0.0`
//!   term into a non-negative, in-order accumulation leaves every partial
//!   sum bit-identical.
//! * Unaffected `q` can only park ink on unaffected hubs (if `q` reached an
//!   affected hub `h`, then `q` reaches `u` through `h` and would itself be
//!   affected), so its materialized bounds see only unchanged columns.
//!
//! Inside the affected set the hub columns are recomputed from scratch, and
//! the node states fall into three **tiers**, read off the pre-update states
//! (`update_tiers`):
//!
//! * **Re-run** — states whose walk *pushed* `u`, i.e. `w(u) > 0`. A push
//!   is the only place BCA reads an out-row, and every push of `u` retains
//!   `α·r(u) > 0` at `u` (guarded in the BCA engine), so `w(u) > 0` exactly
//!   when the walk — build-time run and any query refinement alike — read
//!   the edited row. These get a fresh BCA run ([`recompute_states`]).
//! * **Rematerialize only** — the other states that parked ink on a
//!   recomputed hub column. Their walk never read the edited row, so on the
//!   mutated graph it replays the same frontiers, pushes and norms: the
//!   snapshot is exactly what a fresh run produces (and a query-refined
//!   snapshot is still a valid partial run, `p_q = w + P_H·s + Σ_v r(v)·p_v`
//!   holding on the new graph). Only what reads `P_H` is stale, so the
//!   top-K bounds and the parked deficit are rebuilt; the snapshot is kept.
//! * **Untouched** — everything else: neither the snapshot nor any column
//!   it reads changed.
//!
//! A hub source is never pushed (ink reaching a hub is parked in `s`), so
//! for it the re-run tier is empty and only `p_u`'s readers rematerialize.
//! Both tiers lie inside the affected set: `w(u) > 0` means `q` reached `u`,
//! and ink on an affected hub means `q` reached `u` through it.
//!
//! Consequently the post-update index is bitwise-equal to a full rebuild of
//! the mutated graph with the hub set pinned — provided no state was refined
//! past its build-time stop (queries in `update` mode tighten states
//! monotonically; a refined state that did not push `u` keeps its
//! refinement, still sound, just no longer byte-comparable to a *fresh*
//! rebuild).
//!
//! The affected set is identical on the pre- and post-update graph: whether
//! `q` can reach `u` never depends on `u`'s own out-edges, and `u` is always
//! in the set. The tiers are a function of the edit, the graph and the
//! pre-update states, so the update log ([`crate::storage::UpdateRecord`])
//! stores only the edit, and replaying it over the same snapshot
//! deterministically regenerates the exact recompute schedule.

use crate::config::IndexConfig;
use crate::hub_matrix::{HubMatrix, Materializer};
use crate::node_state::NodeState;
use crate::shard::IndexShard;
use rtk_graph::{DiGraph, TransitionMatrix};
use rtk_rwr::bca::{BcaEngine, BcaStop, PropagationStrategy};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Nodes claimed per worker fetch during an update sweep (mirrors the
/// builder's `SWEEP_CHUNK`).
const RECOMPUTE_CHUNK: usize = 64;

/// What one applied edge update invalidated and recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateEffect {
    /// Node states whose BCA was re-run — those whose walk pushed the edited
    /// row (the shard-owned subset for [`apply_update_sharded`]).
    pub recomputed_states: usize,
    /// Node states that kept their snapshot and only had their top-K bounds
    /// and parked deficit rebuilt against recomputed hub columns.
    pub rematerialized_states: usize,
    /// Hub columns recomputed (hubs inside the affected set).
    pub recomputed_hubs: usize,
}

impl UpdateEffect {
    /// Folds another effect into this one (accumulating over a replay).
    pub fn merge(&mut self, other: UpdateEffect) {
        self.recomputed_states += other.recomputed_states;
        self.rematerialized_states += other.rematerialized_states;
        self.recomputed_hubs += other.recomputed_hubs;
    }
}

/// The set of nodes whose index entries an update of `source`'s out-row can
/// affect: every `q` that can reach `source` along out-edges, `source`
/// itself included. Computed as a BFS from `source` over in-edges; returned
/// in ascending id order (so downstream recompute schedules are canonical).
pub fn affected_set(graph: &DiGraph, source: u32) -> Vec<u32> {
    let n = graph.node_count();
    assert!((source as usize) < n, "update source {source} out of range");
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[source as usize] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &p in graph.in_neighbors(v) {
            if !seen[p as usize] {
                seen[p as usize] = true;
                queue.push_back(p);
            }
        }
    }
    (0..n as u32).filter(|&u| seen[u as usize]).collect()
}

/// How one update of `source`'s out-row reaches the index (module docs).
/// Every list is in ascending id order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct UpdateTiers {
    /// Hubs inside the affected set — their columns are recomputed.
    pub(crate) hubs: Vec<u32>,
    /// States whose walk pushed `source`: fresh BCA run.
    pub(crate) rerun: Vec<u32>,
    /// Other states with ink parked on a recomputed hub: rebuild the top-K
    /// bounds and parked deficit only.
    pub(crate) rematerialize: Vec<u32>,
}

/// Sorts the affected states the `shards` own into [`UpdateTiers`], reading
/// the *pre-update* states. The hub tier covers the whole affected set
/// whatever the shards own (every process recomputes the same columns).
pub(crate) fn update_tiers(
    graph: &DiGraph,
    hub_matrix: &HubMatrix,
    shards: &[IndexShard],
    source: u32,
) -> UpdateTiers {
    let affected = affected_set(graph, source);
    let hubs: Vec<u32> =
        affected.iter().copied().filter(|&h| hub_matrix.hubs().contains(h)).collect();
    let mut tiers = UpdateTiers { hubs, ..UpdateTiers::default() };
    for shard in shards {
        let range = shard.range();
        let lo = affected.partition_point(|&u| u < range.start);
        let hi = affected.partition_point(|&u| u < range.end);
        for &u in &affected[lo..hi] {
            let snapshot = shard.state(u).snapshot();
            if snapshot.retained.get(source) > 0.0 {
                tiers.rerun.push(u);
            } else if snapshot.hub_ink.indices().iter().any(|h| tiers.hubs.binary_search(h).is_ok())
            {
                tiers.rematerialize.push(u);
            }
        }
    }
    tiers
}

/// Applies one update of `source`'s out-row to `hub_matrix` and the states
/// `shards` own, tier by tier; `transition` already reflects the edit. The
/// shared body of [`crate::ReverseIndex::apply_update`] (all shards) and
/// [`apply_update_sharded`] (one).
pub(crate) fn apply_tiered_update(
    transition: &TransitionMatrix<'_>,
    config: &IndexConfig,
    hub_matrix: &mut HubMatrix,
    shards: &mut [IndexShard],
    source: u32,
) -> UpdateEffect {
    let tiers = update_tiers(transition.graph(), hub_matrix, shards, source);
    let threads = config.effective_threads();
    // Hub columns first: both state tiers materialize against `P_H`.
    hub_matrix.recompute_columns(transition, &tiers.hubs, &config.hub_solver, threads);
    let hub_matrix = &*hub_matrix;
    let fresh = recompute_states(transition, hub_matrix, config, &tiers.rerun);
    let n = transition.node_count();
    let bounds = {
        let shards = &*shards;
        sweep(
            &tiers.rematerialize,
            threads,
            || Materializer::new(n),
            |materializer, u| {
                shards[owner(shards, u)].state(u).rematerialized(hub_matrix, materializer)
            },
        )
    };
    for (u, state) in fresh {
        shards[owner(shards, u)].commit_state(u, state);
    }
    for (&u, bounds) in tiers.rematerialize.iter().zip(bounds) {
        shards[owner(shards, u)].state_mut(u).set_materialized(bounds);
    }
    UpdateEffect {
        recomputed_states: tiers.rerun.len(),
        rematerialized_states: tiers.rematerialize.len(),
        recomputed_hubs: tiers.hubs.len(),
    }
}

/// Position in `shards` (ascending, contiguous ranges) of the shard owning `u`.
fn owner(shards: &[IndexShard], u: u32) -> usize {
    shards.partition_point(|s| s.node_hi() <= u)
}

/// Maps `work` over `nodes` on up to `threads` pool workers, each with its
/// own context from `make`; results come back in `nodes` order, so
/// scheduling cannot change them.
fn sweep<C, T: Send>(
    nodes: &[u32],
    threads: usize,
    make: impl Fn() -> C + Sync,
    work: impl Fn(&mut C, u32) -> T + Sync,
) -> Vec<T> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(nodes.len());
    let next = AtomicUsize::new(0);
    let collected = std::sync::Mutex::new(Vec::<Vec<(usize, T)>>::new());
    rtk_sparse::WorkerPool::global().scope(|scope| {
        for _ in 0..threads {
            let (next, collected, make, work) = (&next, &collected, &make, &work);
            scope.spawn(move || {
                let mut context = make();
                let mut local = Vec::new();
                loop {
                    let lo = next.fetch_add(RECOMPUTE_CHUNK, Ordering::Relaxed);
                    if lo >= nodes.len() {
                        break;
                    }
                    let hi = (lo + RECOMPUTE_CHUNK).min(nodes.len());
                    for (i, &u) in nodes.iter().enumerate().take(hi).skip(lo) {
                        local.push((i, work(&mut context, u)));
                    }
                }
                collected.lock().expect("update sweep results poisoned").push(local);
            });
        }
    });
    let mut slots: Vec<Option<T>> = (0..nodes.len()).map(|_| None).collect();
    for chunk in collected.into_inner().expect("update sweep results poisoned") {
        for (i, result) in chunk {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("result missing after update sweep"))
        .collect()
}

/// Recomputes fresh node states for `nodes` with the exact Algorithm 1
/// recipe (same engine construction, stop rule, and top-K materialization
/// as [`crate::builder::LbiBuilder::build`]), spread over
/// `config.effective_threads()` pool workers. Returns `(node, state)` pairs
/// in `nodes` order; scheduling cannot change any state (per-node runs are
/// independent and merged by slot).
pub fn recompute_states(
    transition: &TransitionMatrix<'_>,
    hub_matrix: &HubMatrix,
    config: &IndexConfig,
    nodes: &[u32],
) -> Vec<(u32, NodeState)> {
    let n = transition.node_count();
    let stop = BcaStop::from_params(&config.bca);
    let states = sweep(
        nodes,
        config.effective_threads(),
        || {
            let engine = BcaEngine::new(
                hub_matrix.hubs().clone(),
                config.bca,
                PropagationStrategy::BatchThreshold,
            );
            (engine, Materializer::new(n))
        },
        |(engine, materializer), u| {
            let snapshot = engine.run_from(transition, u, &stop);
            NodeState::from_snapshot(snapshot, hub_matrix, materializer, config.max_k)
        },
    );
    nodes.iter().copied().zip(states).collect()
}

/// Shard-local update application for multi-process serving: recomputes the
/// affected hub columns of the (process-local copy of the) shared hub
/// matrix, then the tiers of only the affected states *this shard owns*.
/// Every process runs the identical hub recompute, so their hub matrices
/// stay bitwise-converged; the per-node work is disjoint across shards and
/// the union over all shards equals [`crate::ReverseIndex::apply_update`]
/// on a full index.
pub fn apply_update_sharded(
    transition: &TransitionMatrix<'_>,
    config: &IndexConfig,
    hub_matrix: &mut HubMatrix,
    shard: &mut IndexShard,
    source: u32,
) -> UpdateEffect {
    apply_tiered_update(transition, config, hub_matrix, std::slice::from_mut(shard), source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubSelection, HubSolver};
    use crate::index::ReverseIndex;
    use rtk_graph::{DanglingPolicy, GraphBuilder};
    use rtk_rwr::{BcaParams, RwrParams};

    fn config(threads: usize, shards: usize) -> IndexConfig {
        IndexConfig {
            max_k: 5,
            bca: BcaParams { residue_threshold: 0.2, ..Default::default() },
            hub_selection: HubSelection::DegreeBased { b: 4 },
            hub_solver: HubSolver::PowerMethod(RwrParams::default()),
            rounding_threshold: 0.0,
            threads,
            shards,
        }
    }

    #[test]
    fn affected_set_is_reverse_reachability() {
        // 0 -> 1 -> 2 -> 3, plus 3 -> 3 self loop; only nodes 0..=1 reach 1.
        let g =
            GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 3)], DanglingPolicy::Error)
                .unwrap();
        assert_eq!(affected_set(&g, 1), vec![0, 1]);
        assert_eq!(affected_set(&g, 3), vec![0, 1, 2, 3]);
        assert_eq!(affected_set(&g, 0), vec![0]);
    }

    #[test]
    fn apply_update_matches_fresh_rebuild_bitwise() {
        let mut g = rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(80, 320, 11)).unwrap();
        let cfg = config(2, 1);

        let t0 = TransitionMatrix::new(&g);
        let mut live = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        drop(t0);

        let script: [(bool, u32, u32, f64); 4] =
            [(true, 3, 77, 1.0), (true, 40, 5, 2.5), (false, 3, 77, 0.0), (true, 12, 12, 1.0)];
        for &(add, from, to, w) in script.iter() {
            let splice = if add { g.add_edge(from, to, w) } else { g.remove_edge(from, to) };
            let splice = splice.unwrap();
            let t = TransitionMatrix::new(&g);
            let effect = live.apply_update(&t, splice.from);
            assert!(effect.recomputed_states > 0);

            // Rebuild oracle pins the live hub ids so selection can't drift.
            let rebuild_cfg = IndexConfig {
                hub_selection: HubSelection::Explicit(live.hub_matrix().hubs().ids().to_vec()),
                ..cfg.clone()
            };
            let fresh = ReverseIndex::build(&t, rebuild_cfg).unwrap();
            assert_eq!(live.hub_matrix(), fresh.hub_matrix(), "hub matrix diverged");
            for u in 0..g.node_count() as u32 {
                assert_eq!(live.state(u), fresh.state(u), "node {u} diverged");
            }
        }
    }

    #[test]
    fn sharded_updates_union_to_full_update() {
        let mut g = rtk_graph::gen::erdos_renyi(&rtk_graph::gen::ErdosRenyiConfig {
            nodes: 60,
            edges: 300,
            seed: 5,
        })
        .unwrap();
        let cfg = config(1, 3);
        let t0 = TransitionMatrix::new(&g);
        let mut full = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        let sharded = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        let mut hub_copies: Vec<HubMatrix> =
            (0..sharded.shard_count()).map(|_| sharded.hub_matrix().clone()).collect();
        let mut shards: Vec<IndexShard> = sharded.shards().to_vec();
        drop(t0);

        let splice = g.add_edge(7, 33, 1.0).unwrap();
        let t = TransitionMatrix::new(&g);
        full.apply_update(&t, splice.from);
        for (hubs, shard) in hub_copies.iter_mut().zip(shards.iter_mut()) {
            apply_update_sharded(&t, &cfg, hubs, shard, splice.from);
        }
        for hubs in &hub_copies {
            assert_eq!(hubs, full.hub_matrix());
        }
        for shard in &shards {
            for u in shard.range() {
                assert_eq!(shard.state(u), full.state(u), "node {u} diverged");
            }
        }
    }

    /// The pre-tier rule on copies: every affected hub column and *every*
    /// affected state recomputed from scratch.
    fn full_recompute(
        t: &TransitionMatrix<'_>,
        cfg: &IndexConfig,
        hub_matrix: &HubMatrix,
        shards: &[IndexShard],
        source: u32,
    ) -> (HubMatrix, Vec<IndexShard>) {
        let affected = affected_set(t.graph(), source);
        let hubs: Vec<u32> =
            affected.iter().copied().filter(|&h| hub_matrix.hubs().contains(h)).collect();
        let mut hub_matrix = hub_matrix.clone();
        hub_matrix.recompute_columns(t, &hubs, &cfg.hub_solver, 1);
        let mut shards = shards.to_vec();
        for (u, state) in recompute_states(t, &hub_matrix, cfg, &affected) {
            let i = owner(&shards, u);
            shards[i].commit_state(u, state);
        }
        (hub_matrix, shards)
    }

    /// Adds `source → target` to `g`, then checks the tiered update of a
    /// fresh index against [`full_recompute`], the tier invariants, and the
    /// union of three shard-local updates. Returns the full-index effect.
    fn check_tiered_update(
        label: &str,
        g: &mut DiGraph,
        cfg: &IndexConfig,
        source: u32,
        target: u32,
    ) -> UpdateEffect {
        let t0 = TransitionMatrix::new(g);
        let mut live = ReverseIndex::build(&t0, cfg.clone()).unwrap();
        let split = ReverseIndex::build(&t0, IndexConfig { shards: 3, ..cfg.clone() }).unwrap();
        drop(t0);
        let mut hub_copies: Vec<HubMatrix> =
            (0..split.shard_count()).map(|_| split.hub_matrix().clone()).collect();
        let mut shards: Vec<IndexShard> = split.shards().to_vec();

        g.add_edge(source, target, 1.0).unwrap();
        let t = TransitionMatrix::new(g);
        let affected = affected_set(g, source);
        let tiers = update_tiers(g, live.hub_matrix(), live.shards(), source);
        for tier in [&tiers.hubs, &tiers.rerun, &tiers.rematerialize] {
            assert!(tier.windows(2).all(|w| w[0] < w[1]), "{label}: tier not ascending");
            assert!(
                tier.iter().all(|u| affected.binary_search(u).is_ok()),
                "{label}: tier escapes the affected set"
            );
        }
        assert!(
            tiers.rerun.iter().all(|u| tiers.rematerialize.binary_search(u).is_err()),
            "{label}: re-run and rematerialize tiers overlap"
        );

        let (oracle_hubs, oracle_shards) =
            full_recompute(&t, cfg, live.hub_matrix(), live.shards(), source);
        let effect = live.apply_update(&t, source);
        assert_eq!(
            effect,
            UpdateEffect {
                recomputed_states: tiers.rerun.len(),
                rematerialized_states: tiers.rematerialize.len(),
                recomputed_hubs: tiers.hubs.len(),
            },
            "{label}"
        );
        assert_eq!(live.hub_matrix(), &oracle_hubs, "{label}: hub matrix diverged");
        for u in 0..g.node_count() as u32 {
            let oracle = oracle_shards[owner(&oracle_shards, u)].state(u);
            assert_eq!(live.state(u), oracle, "{label}: node {u} diverged from full recompute");
        }

        let mut union = UpdateEffect::default();
        for (hubs, shard) in hub_copies.iter_mut().zip(shards.iter_mut()) {
            let part = apply_update_sharded(&t, cfg, hubs, shard, source);
            assert_eq!(part.recomputed_hubs, effect.recomputed_hubs, "{label}");
            union.merge(UpdateEffect { recomputed_hubs: 0, ..part });
        }
        assert_eq!(union, UpdateEffect { recomputed_hubs: 0, ..effect }, "{label}: shard union");
        for hubs in &hub_copies {
            assert_eq!(hubs, live.hub_matrix(), "{label}: shard hub matrix diverged");
        }
        for shard in &shards {
            for u in shard.range() {
                assert_eq!(shard.state(u), live.state(u), "{label}: shard node {u} diverged");
            }
        }
        effect
    }

    #[test]
    fn tiered_updates_equal_full_affected_set_recompute() {
        let graphs = [
            (
                "er",
                rtk_graph::gen::erdos_renyi(&rtk_graph::gen::ErdosRenyiConfig {
                    nodes: 60,
                    edges: 300,
                    seed: 5,
                })
                .unwrap(),
            ),
            ("rmat", rtk_graph::gen::rmat(&rtk_graph::gen::RmatConfig::new(80, 320, 11)).unwrap()),
        ];
        let mut non_hub_rematerialized = 0;
        for (name, graph) in graphs {
            let n = graph.node_count() as u32;
            let reach = |u: u32| affected_set(&graph, u).len();
            for threads in [1, 2] {
                let cfg = config(threads, 1);
                let hubs = {
                    let t = TransitionMatrix::new(&graph);
                    ReverseIndex::build(&t, cfg.clone()).unwrap().hub_matrix().hubs().clone()
                };
                // The widest-reaching source of each kind, so every tier
                // is populated.
                let hub_source = hubs.ids().iter().copied().max_by_key(|&h| reach(h)).unwrap();
                let plain_source =
                    (0..n).filter(|&u| !hubs.contains(u)).max_by_key(|&u| reach(u)).unwrap();

                let label = format!("{name}/hub source {hub_source}/threads {threads}");
                let effect = check_tiered_update(&label, &mut graph.clone(), &cfg, hub_source, 0);
                assert_eq!(effect.recomputed_states, 0, "{label}: a hub is never pushed");
                assert!(effect.rematerialized_states > 0, "{label}: hub readers rematerialize");

                let label = format!("{name}/source {plain_source}/threads {threads}");
                let effect = check_tiered_update(
                    &label,
                    &mut graph.clone(),
                    &cfg,
                    plain_source,
                    (plain_source + 7) % n,
                );
                assert!(effect.recomputed_states > 0, "{label}: the source itself re-runs");
                non_hub_rematerialized += effect.rematerialized_states;
            }
        }
        assert!(non_hub_rematerialized > 0, "no case exercised the rematerialize-only tier");
    }
}
