//! The three workloads and the inputs they run: a fixed R-MAT graph per
//! workload, and seeded query and edge-update streams.
//!
//! The graph does not follow `--seed`. Probes with one graph per seed moved
//! the median read latency of `local_k50` by up to 40% between seeds, which
//! no bound of at most 25% can hold; the request stream, the warm-up, the
//! update stream and the oracle's samples all follow the seed.

use rtk_core::{EngineError, ReverseTopkEngine, UpdateEffect};
use rtk_graph::gen::{rmat, RmatConfig};
use rtk_graph::{DiGraph, NodeId};
use rtk_index::update::affected_set;
use rtk_query::QueryOptions;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    LocalK50,
    RoutedK10,
    UpdateMix,
}

/// A workload's fixed shape. Everything random in it comes from the seed.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub k: usize,
    /// Closed-loop client threads, each with its own connection when routed.
    pub clients: usize,
    /// Reads in one pass of the read stream (one node of each PageRank
    /// band). The timed phase runs whole passes until `--seconds` have
    /// passed, so a run has at least this many reads; the read tail
    /// percentile is fixed from this count for every run of the workload.
    pub min_reads: usize,
    /// Edge updates in one pass (`update_mix` only); fixes the write tail.
    pub min_writes: usize,
    /// Reads issued after each edge update; `0` makes the workload read-only.
    pub reads_per_write: usize,
    /// Frozen reads run before timing starts (same on both sides of any
    /// comparison, since they come from the seed).
    pub warmup_reads: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Reads whose answers the sampled exact oracle checks, and members plus
    /// non-members checked per read.
    pub oracle_reads: usize,
    pub oracle_per_side: usize,
    /// Reads and edge updates driven through every tier in the traced run.
    pub traced_reads: usize,
    pub traced_writes: usize,
}

/// `local_k50` runs by hand only: `BENCHMARK.json` leaves it out as too
/// unsteady to gate on (see the benchmark's README).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::LocalK50,
        name: "local_k50",
        nodes: 10_000,
        edges: 60_000,
        k: 50,
        clients: 1,
        min_reads: 200,
        min_writes: 0,
        reads_per_write: 0,
        warmup_reads: 8,
        setups: 3,
        oracle_reads: 4,
        oracle_per_side: 6,
        traced_reads: 20,
        traced_writes: 1,
    },
    Workload {
        kind: Kind::RoutedK10,
        name: "routed_k10",
        nodes: 3_000,
        edges: 18_000,
        k: 10,
        clients: 2,
        min_reads: 1_000,
        min_writes: 0,
        reads_per_write: 0,
        warmup_reads: 40,
        setups: 3,
        oracle_reads: 8,
        oracle_per_side: 8,
        traced_reads: 100,
        traced_writes: 4,
    },
    Workload {
        kind: Kind::UpdateMix,
        name: "update_mix",
        nodes: 3_000,
        edges: 18_000,
        k: 20,
        clients: 1,
        min_reads: 600,
        min_writes: 50,
        reads_per_write: 12,
        warmup_reads: 20,
        setups: 3,
        oracle_reads: 6,
        oracle_per_side: 8,
        traced_reads: 100,
        traced_writes: 10,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Cores available to the run; client threads, tier workers and query
/// threads are all sized from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every build.
pub struct Rng(u64);

impl Rng {
    /// Generator for sub-stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform sample of `m` distinct items of `items` (all of them when
    /// `m ≥ len`), in sampled order.
    pub fn sample<T: Copy>(&mut self, items: &[T], m: usize) -> Vec<T> {
        let mut pool = items.to_vec();
        let m = m.min(pool.len());
        for i in 0..m {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(m);
        pool
    }
}

/// Sub-streams of one seed.
pub const STREAM_READS: u64 = 1;
pub const STREAM_WARMUP: u64 = 2;
pub const STREAM_UPDATES: u64 = 3;
pub const STREAM_ORACLE: u64 = 4;

/// Seed of every workload's R-MAT graph.
pub const GRAPH_SEED: u64 = 1;

/// The workload's R-MAT graph.
pub fn graph(w: &Workload) -> DiGraph {
    rmat(&RmatConfig::new(w.nodes, w.edges, GRAPH_SEED)).expect("R-MAT parameters are valid")
}

/// The engine every workload uses: engine defaults (`max_k` 200, 50 hubs
/// per direction, power-method hubs), query threads = cores.
pub fn build_engine(graph: DiGraph) -> ReverseTopkEngine {
    ReverseTopkEngine::builder(graph)
        .query_threads(nproc())
        .build()
        .expect("an R-MAT graph has no dangling node")
}

/// Options of a read: frozen, or update mode (`update_mix`), on the
/// default exact path.
pub fn read_options(update: bool) -> QueryOptions {
    QueryOptions { update_index: update, query_threads: nproc(), ..QueryOptions::default() }
}

/// Nodes by descending PageRank (restart 0.15, as the engine's `α`;
/// uniform teleport; 30 iterations), ties by id. `Σ_u p_u(q)` is `n` times
/// `q`'s PageRank, so this orders query nodes by the proximity mass that
/// points at them: how many candidates a reverse query has to screen.
pub fn by_pagerank(graph: &DiGraph) -> Vec<u32> {
    let n = graph.node_count();
    let mut x = vec![1.0 / n as f64; n];
    for _ in 0..30 {
        let mut y = vec![0.15 / n as f64; n];
        for u in 0..n as u32 {
            let share = 0.85 * x[u as usize] / graph.out_weight_sum(u);
            let weights = graph.out_weights(u);
            for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
                y[v as usize] += share * weights.map_or(1.0, |w| w[i]);
            }
        }
        x = y;
    }
    let mut ranked: Vec<u32> = (0..n as u32).collect();
    ranked.sort_by(|&a, &b| x[b as usize].total_cmp(&x[a as usize]).then(a.cmp(&b)));
    ranked
}

/// Nodes by descending affected-set size (ties by id): how many node
/// states an update of the node's out-row recomputes.
pub fn by_affected_set(graph: &DiGraph) -> Vec<u32> {
    let size: Vec<usize> =
        (0..graph.node_count() as u32).map(|u| affected_set(graph, u).len()).collect();
    let mut ranked: Vec<u32> = (0..graph.node_count() as u32).collect();
    ranked.sort_by_key(|&u| (std::cmp::Reverse(size[u as usize]), u));
    ranked
}

/// Uniform node draws, stratified by a cost ranking to steady the run.
///
/// The ranked nodes are cut into `strata` equal bands; each pass of the
/// stream draws one uniformly chosen node of every band, in shuffled order.
/// Every node is still equally likely to be drawn, but each pass holds
/// exactly one node of every band, down to the costliest band, instead of
/// a seed-dependent number of them.
pub struct Stratified {
    rng: Rng,
    bands: Vec<Vec<u32>>,
    pass: Vec<u32>,
}

impl Stratified {
    /// `strata` must divide the node count, so every band has equal size.
    pub fn new(ranked: &[u32], strata: usize, seed: u64, stream: u64) -> Self {
        let n = ranked.len();
        assert!(strata > 0 && n.is_multiple_of(strata), "{strata} strata do not divide {n} nodes");
        let bands = ranked.chunks(n / strata).map(<[u32]>::to_vec).collect();
        Self { rng: Rng::new(seed, stream), bands, pass: Vec::new() }
    }

    /// Query nodes stratified by [`by_pagerank`].
    pub fn queries(graph: &DiGraph, strata: usize, seed: u64, stream: u64) -> Self {
        Self::new(&by_pagerank(graph), strata, seed, stream)
    }

    pub fn next_node(&mut self) -> u32 {
        if self.pass.is_empty() {
            let mut pass: Vec<u32> =
                self.bands.iter().map(|b| b[self.rng.below(b.len())]).collect();
            for i in (1..pass.len()).rev() {
                let j = self.rng.below(i + 1);
                pass.swap(i, j);
            }
            self.pass = pass;
        }
        self.pass.pop().expect("a pass holds one node per band")
    }
}

/// One edge update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    Add { from: u32, to: u32, weight: f64 },
    Remove { from: u32, to: u32 },
}

impl Update {
    /// The node whose out-row the update renormalizes.
    pub fn source(&self) -> u32 {
        match *self {
            Update::Add { from, .. } | Update::Remove { from, .. } => from,
        }
    }

    pub fn apply(&self, engine: &mut ReverseTopkEngine) -> Result<UpdateEffect, EngineError> {
        match *self {
            Update::Add { from, to, weight } => engine.add_edge(NodeId(from), NodeId(to), weight),
            Update::Remove { from, to } => engine.remove_edge(NodeId(from), NodeId(to)),
        }
    }
}

/// Bands of the sources of added edges; the adds of one `update_mix` pass
/// draw one source from each.
const ADD_BANDS: usize = 30;

/// Seeded edge updates in the shape of `update_study`'s generator: 60% add
/// an edge (or add weight to an existing one) and 40% remove one, and no
/// update removes a node's last out-edge. Of every five updates the second
/// and fourth remove. Added edges start at sources stratified by
/// [`by_affected_set`], so every 50 updates recompute a like amount of
/// state; removed edges are drawn uniformly.
pub struct UpdateStream {
    rng: Rng,
    sources: Stratified,
    nodes: usize,
    edges: BTreeSet<(u32, u32)>,
    out_degree: Vec<usize>,
    issued: usize,
}

impl UpdateStream {
    pub fn new(graph: &DiGraph, seed: u64) -> Self {
        let nodes = graph.node_count();
        Self {
            rng: Rng::new(seed, STREAM_UPDATES),
            sources: Stratified::new(&by_affected_set(graph), ADD_BANDS, seed, STREAM_UPDATES + 1),
            nodes,
            edges: graph.edges().map(|(from, to, _)| (from, to)).collect(),
            out_degree: (0..nodes as u32).map(|u| graph.out_degree(u)).collect(),
            issued: 0,
        }
    }

    pub fn next_update(&mut self) -> Update {
        self.issued += 1;
        if self.issued % 5 == 2 || self.issued % 5 == 4 {
            let removable: Vec<(u32, u32)> = self
                .edges
                .iter()
                .copied()
                .filter(|&(from, _)| self.out_degree[from as usize] >= 2)
                .collect();
            if !removable.is_empty() {
                let (from, to) = removable[self.rng.below(removable.len())];
                self.edges.remove(&(from, to));
                self.out_degree[from as usize] -= 1;
                return Update::Remove { from, to };
            }
        }
        let from = self.sources.next_node();
        let to = loop {
            let to = self.rng.below(self.nodes) as u32;
            if to != from {
                break to;
            }
        };
        let weight = 0.25 + self.rng.below(8) as f64 * 0.25;
        if self.edges.insert((from, to)) {
            self.out_degree[from as usize] += 1;
        }
        Update::Add { from, to, weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_cover_every_band() {
        let g = rmat(&RmatConfig::new(400, 1_600, 2)).unwrap();
        let take = |seed| {
            let mut s = Stratified::queries(&g, 40, seed, STREAM_READS);
            (0..80).map(|_| s.next_node()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
        let ranked = by_pagerank(&g);
        let band = |u: u32| ranked.iter().position(|&v| v == u).unwrap() / 10;
        for pass in take(5).chunks(40) {
            let mut bands: Vec<usize> = pass.iter().map(|&u| band(u)).collect();
            bands.sort_unstable();
            assert_eq!(bands, (0..40).collect::<Vec<_>>(), "one node per band per pass");
        }
    }

    #[test]
    fn updates_never_remove_a_last_out_edge() {
        let g = rmat(&RmatConfig::new(300, 1_200, 5)).unwrap();
        let mut deg: Vec<usize> = (0..300u32).map(|u| g.out_degree(u)).collect();
        let mut s = UpdateStream::new(&g, 9);
        let (mut adds, mut removes) = (0, 0);
        for _ in 0..500 {
            match s.next_update() {
                Update::Remove { from, .. } => {
                    assert!(deg[from as usize] >= 2);
                    deg[from as usize] -= 1;
                    removes += 1;
                }
                Update::Add { from, to, .. } => {
                    assert_ne!(from, to);
                    deg[from as usize] = s.out_degree[from as usize];
                    adds += 1;
                }
            }
        }
        assert_eq!((adds, removes), (300, 200));
    }
}
