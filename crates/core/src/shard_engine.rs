//! The per-shard serving engine: graph + shared hubs + **one** index shard.
//!
//! A [`ShardEngine`] is what one multi-process backend owns: the full graph
//! (PMPN and BCA refinement walk the whole transition matrix) but only one
//! shard's node states — the memory that actually scales with the index.
//! Its [`ShardEngine::query_shard_frozen`] /
//! [`ShardEngine::query_shard_update`] answer
//! the shard-scoped slice of a reverse top-k query; a router merges the
//! slices of every shard into the full answer (see `rtk-server`'s `router`
//! module), bitwise equal to a single-process [`crate::ReverseTopkEngine`].

use crate::error::EngineError;
use rtk_graph::{DiGraph, EdgeSplice, NodeId, TransitionKernel, TransitionMatrix, TransitionProbs};
use rtk_index::{
    storage, HubMatrix, IndexConfig, IndexShard, ShardMap, ShardSlice, UpdateEffect, UpdateRecord,
};
use rtk_query::{QueryEngine, QueryOptions, QueryResult};
use std::io::Write;
use std::ops::Range;

/// An engine serving exactly one shard of a sharded index.
///
/// Construct with [`ShardEngine::from_parts`] from a graph plus a
/// [`ShardSlice`] (loaded standalone via
/// [`rtk_index::storage::load_shard_slice`], or extracted from an in-memory
/// index via [`ShardSlice::from_index`]).
///
/// ```
/// use rtk_core::{ReverseTopkEngine, ShardEngine};
/// use rtk_core::index::ShardSlice;
/// use rtk_core::graph::NodeId;
///
/// // Build a 2-shard engine, then serve shard 0 standalone.
/// let graph = rtk_datasets::toy_graph();
/// let engine = ReverseTopkEngine::builder(graph.clone())
///     .max_k(3)
///     .hubs_per_direction(1)
///     .shards(2)
///     .build()
///     .unwrap();
/// let slice = ShardSlice::from_index(engine.index(), 0).unwrap();
/// let shard = ShardEngine::from_parts(graph, slice).unwrap();
/// assert_eq!(shard.shard_range(), 0..3);
///
/// // The shard-scoped slice of "reverse top-2 of node 0" ({0, 1, 4}
/// // globally) restricted to nodes 0..3 is {0, 1}.
/// let partial = shard
///     .query_shard_frozen(NodeId(0), 2, &Default::default())
///     .unwrap();
/// assert_eq!(partial.nodes(), &[0, 1]);
/// ```
pub struct ShardEngine {
    graph: DiGraph,
    /// Cached transition probabilities (the graph is immutable once owned).
    probs: TransitionProbs,
    /// Cached flat-CSR gather kernel paired with `probs`.
    kernel: TransitionKernel,
    config: IndexConfig,
    hub_matrix: HubMatrix,
    shard_map: ShardMap,
    shard: IndexShard,
    session: QueryEngine,
}

impl ShardEngine {
    /// Assembles a shard engine, validating that `graph` matches the
    /// slice's node count and has no dangling nodes.
    pub fn from_parts(graph: DiGraph, slice: ShardSlice) -> Result<Self, EngineError> {
        if graph.node_count() != slice.node_count() {
            return Err(EngineError::Query(rtk_query::QueryError::GraphMismatch {
                index_nodes: slice.node_count(),
                graph_nodes: graph.node_count(),
            }));
        }
        let dangling = graph.dangling_nodes();
        if let Some(&node) = dangling.first() {
            return Err(EngineError::Graph(rtk_graph::GraphError::DanglingNode {
                node,
                count: dangling.len(),
            }));
        }
        let probs = TransitionProbs::compute(&graph);
        let kernel = TransitionKernel::build(&graph, &probs);
        let ShardSlice { config, hub_matrix, shard_map, shard } = slice;
        let session = QueryEngine::from_parts(graph.node_count(), &hub_matrix, config.bca);
        Ok(Self { graph, probs, kernel, config, hub_matrix, shard_map, shard, session })
    }

    /// The cached transition view — `O(1)`, no allocation, kernel-backed.
    fn transition(&self) -> TransitionMatrix<'_> {
        TransitionMatrix::with_probs_and_kernel(&self.graph, &self.probs, &self.kernel)
    }

    /// The underlying (full) graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Total nodes in the graph / whole index — not just this shard.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Largest supported query `k` (the whole index's `K`).
    pub fn max_k(&self) -> usize {
        self.config.max_k
    }

    /// This shard's position in the shard map.
    pub fn shard_id(&self) -> usize {
        self.shard.id()
    }

    /// Global node-id range this engine owns and screens.
    pub fn shard_range(&self) -> Range<u32> {
        self.shard.range()
    }

    /// Number of nodes in this shard.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    /// Heap bytes of this shard's states (drifts as refinements commit).
    pub fn shard_heap_bytes(&self) -> usize {
        self.shard.heap_bytes()
    }

    /// Total shards in the partition this shard belongs to.
    pub fn shard_count(&self) -> usize {
        self.shard_map.shard_count()
    }

    /// The full partition of the node id space.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// The shard-scoped slice of a frozen reverse top-k query: PMPN over
    /// the whole graph, screening over this shard's range only. Refined
    /// states are dropped; the shard is not modified.
    pub fn query_shard_frozen(
        &self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryResult, EngineError> {
        let (result, _) = self.query_shard_frozen_with_pmpn(q, k, options, None, false)?;
        Ok(result)
    }

    /// [`Self::query_shard_frozen`] with PMPN sharing: `pmpn` supplies a
    /// precomputed proximity-to-`q` vector so this backend can skip the
    /// solve, and `want_pmpn` asks for the locally solved vector back so a
    /// router can solve once per query and ship the result to the other
    /// shards. The returned vector is `None` unless `want_pmpn`.
    pub fn query_shard_frozen_with_pmpn(
        &self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> Result<(QueryResult, Option<Vec<f64>>), EngineError> {
        let opts = QueryOptions { update_index: false, ..*options };
        let (result, _, pmpn_out) = self.session.query_shard_with_pmpn(
            &self.transition(),
            &self.hub_matrix,
            self.config.alpha(),
            self.config.max_k,
            &self.shard,
            q.0,
            k,
            &opts,
            pmpn,
            want_pmpn,
        )?;
        Ok((result, pmpn_out))
    }

    /// The shard-scoped slice of an update-mode reverse top-k query: like
    /// [`Self::query_shard_frozen`], but the refined private states commit
    /// back into this shard — the backend-local half of the cross-process
    /// commit merge (each backend owns its shard, so commits never race
    /// across processes).
    pub fn query_shard_update(
        &mut self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryResult, EngineError> {
        let (result, _) = self.query_shard_update_with_pmpn(q, k, options, None, false)?;
        Ok(result)
    }

    /// [`Self::query_shard_update`] with PMPN sharing — see
    /// [`Self::query_shard_frozen_with_pmpn`].
    pub fn query_shard_update_with_pmpn(
        &mut self,
        q: NodeId,
        k: usize,
        options: &QueryOptions,
        pmpn: Option<&[f64]>,
        want_pmpn: bool,
    ) -> Result<(QueryResult, Option<Vec<f64>>), EngineError> {
        let opts = QueryOptions { update_index: true, ..*options };
        let (result, commits, pmpn_out) = self.session.query_shard_with_pmpn(
            &self.transition(),
            &self.hub_matrix,
            self.config.alpha(),
            self.config.max_k,
            &self.shard,
            q.0,
            k,
            &opts,
            pmpn,
            want_pmpn,
        )?;
        for (u, state) in commits {
            self.shard.commit_state(u, state);
        }
        Ok((result, pmpn_out))
    }

    /// Forward top-k RWR search (full graph — shard-independent).
    pub fn top_k(&self, u: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, EngineError> {
        self.check_node(u)?;
        let transition = self.transition();
        let params = rtk_rwr::RwrParams::with_alpha(self.config.alpha());
        let top = rtk_query::baseline::top_k_rwr(&transition, u.0, k, &params);
        Ok(top.into_iter().map(|(v, p)| (NodeId(v), p)).collect())
    }

    /// Early-terminating forward top-k search (full graph).
    pub fn top_k_early(&self, u: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, EngineError> {
        self.check_node(u)?;
        let transition = self.transition();
        let params = rtk_rwr::BcaParams {
            alpha: self.config.alpha(),
            propagation_threshold: 1e-7,
            residue_threshold: 0.0,
            max_iterations: 100_000,
        };
        let (top, _) = rtk_query::top_k_rwr_early(&transition, u.0, k, &params);
        Ok(top.into_iter().map(|(v, p)| (NodeId(v), p)).collect())
    }

    /// Inserts the edge `from → to` (or accumulates weight onto an existing
    /// one), splices the transition caches, recomputes the affected hub
    /// columns of the process-local hub matrix, and rebuilds the affected
    /// states *this shard owns*. Every backend applying the same update
    /// performs the identical hub recompute and disjoint per-node work, so
    /// the union over shards equals a full-index
    /// [`crate::ReverseTopkEngine::add_edge`].
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<UpdateEffect, EngineError> {
        let splice = self.graph.add_edge(from.0, to.0, weight)?;
        Ok(self.apply_splice(&splice))
    }

    /// Removes the edge `from → to` entirely; otherwise as
    /// [`Self::add_edge`].
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<UpdateEffect, EngineError> {
        let splice = self.graph.remove_edge(from.0, to.0)?;
        Ok(self.apply_splice(&splice))
    }

    /// Replays a decoded `RTKULOG1` update log in order against this shard
    /// (see [`crate::ReverseTopkEngine::replay_updates`]).
    pub fn replay_updates(
        &mut self,
        records: &[UpdateRecord],
    ) -> Result<UpdateEffect, EngineError> {
        let mut total = UpdateEffect::default();
        for record in records {
            let effect = match *record {
                UpdateRecord::AddEdge { from, to, weight } => {
                    self.add_edge(NodeId(from), NodeId(to), weight)?
                }
                UpdateRecord::RemoveEdge { from, to } => {
                    self.remove_edge(NodeId(from), NodeId(to))?
                }
            };
            total.merge(effect);
        }
        Ok(total)
    }

    fn apply_splice(&mut self, splice: &EdgeSplice) -> UpdateEffect {
        self.probs.apply_splice(&self.graph, splice);
        self.kernel.apply_splice(&self.graph, &self.probs, splice);
        let transition =
            TransitionMatrix::with_probs_and_kernel(&self.graph, &self.probs, &self.kernel);
        rtk_index::apply_update_sharded(
            &transition,
            &self.config,
            &mut self.hub_matrix,
            &mut self.shard,
            splice.from,
        )
    }

    /// A stable digest (FNV-1a 64) of the exact `RTKSHRD1` bytes
    /// [`Self::save_shard`] would write. Replicas of the same shard answer
    /// identically whenever their digests match — the router's cheap
    /// convergence check after an update stream.
    pub fn index_digest(&self) -> u64 {
        let mut bytes = Vec::new();
        self.save_shard(&mut bytes).expect("in-memory shard serialization cannot fail");
        crate::digest::fnv1a64(&bytes)
    }

    /// Serializes this shard's current (possibly refined) states as a
    /// self-contained `RTKSHRD1` section — the shard backend's persistence
    /// unit (loadable by [`rtk_index::storage::load_shard`] or re-assembled
    /// under a manifest).
    pub fn save_shard<W: Write>(&self, writer: W) -> Result<(), EngineError> {
        storage::save_shard(&self.shard, self.node_count(), self.config.max_k, writer)?;
        Ok(())
    }

    fn check_node(&self, u: NodeId) -> Result<(), EngineError> {
        if u.index() >= self.graph.node_count() {
            return Err(EngineError::Query(rtk_query::QueryError::NodeOutOfRange {
                node: u.0,
                node_count: self.graph.node_count(),
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReverseTopkEngine;

    fn sharded_engine(shards: usize) -> ReverseTopkEngine {
        ReverseTopkEngine::builder(rtk_datasets::toy_graph())
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .shards(shards)
            .build()
            .unwrap()
    }

    #[test]
    fn shard_engines_cover_the_full_answer() {
        let mut whole = sharded_engine(1);
        let reference = whole.query(NodeId(0), 2).unwrap();
        let sharded = sharded_engine(3);
        let mut merged = Vec::new();
        for sid in 0..3 {
            let slice = ShardSlice::from_index(sharded.index(), sid).unwrap();
            let backend = ShardEngine::from_parts(rtk_datasets::toy_graph(), slice).unwrap();
            assert_eq!(backend.shard_id(), sid);
            assert_eq!(backend.shard_count(), 3);
            let partial =
                backend.query_shard_frozen(NodeId(0), 2, &QueryOptions::default()).unwrap();
            merged.extend_from_slice(partial.nodes());
        }
        assert_eq!(merged, reference.nodes());
    }

    #[test]
    fn update_mode_commits_into_the_owned_shard() {
        let sharded = sharded_engine(2);
        let slice = ShardSlice::from_index(sharded.index(), 1).unwrap();
        let mut backend = ShardEngine::from_parts(rtk_datasets::toy_graph(), slice).unwrap();
        let before = backend.shard_heap_bytes();
        // Node 3 (paper running example) needs refinement for q=0, k=2 and
        // lives in shard 1 of a 2-way split (nodes 3..6).
        assert!(backend.shard_range().contains(&3));
        let r1 = backend.query_shard_update(NodeId(0), 2, &QueryOptions::default()).unwrap();
        let r2 = backend.query_shard_frozen(NodeId(0), 2, &QueryOptions::default()).unwrap();
        assert_eq!(r1.nodes(), r2.nodes());
        assert!(
            r2.stats().refine_iterations <= r1.stats().refine_iterations,
            "committed refinements must make the repeat cheaper or equal"
        );
        let _ = before; // heap size may or may not change on the toy graph
    }

    #[test]
    fn shard_section_round_trips_through_save() {
        let sharded = sharded_engine(2);
        let slice = ShardSlice::from_index(sharded.index(), 0).unwrap();
        let backend = ShardEngine::from_parts(rtk_datasets::toy_graph(), slice).unwrap();
        let mut buf = Vec::new();
        backend.save_shard(&mut buf).unwrap();
        let back =
            storage::load_shard(std::io::Cursor::new(buf), sharded.index().hub_matrix(), 6, 3)
                .unwrap();
        assert_eq!(back.states(), sharded.index().shards()[0].states());
    }

    #[test]
    fn rejects_mismatched_graph_and_bad_nodes() {
        let sharded = sharded_engine(2);
        let slice = ShardSlice::from_index(sharded.index(), 0).unwrap();
        let small = rtk_graph::GraphBuilder::from_edges(
            2,
            &[(0, 1), (1, 0)],
            rtk_graph::DanglingPolicy::Error,
        )
        .unwrap();
        assert!(ShardEngine::from_parts(small, slice.clone()).is_err());

        let backend = ShardEngine::from_parts(rtk_datasets::toy_graph(), slice).unwrap();
        assert!(backend.query_shard_frozen(NodeId(9), 2, &QueryOptions::default()).is_err());
        assert!(backend.top_k(NodeId(9), 2).is_err());
    }
}
