//! The column-stochastic RWR transition matrix `A` (paper §2.1).
//!
//! For an edge `j → i`, `a_{i,j} = w_{i,j} / w_j` where `w_j` is the total
//! outgoing weight of `j` (`1/OD(j)` unweighted). [`TransitionProbs`]
//! materializes these probabilities twice:
//!
//! * in **CSR (out-edge) order** — `probs_out[k]` is the probability attached
//!   to the `k`-th out-edge. Used by ink *pushes* (BCA) and by the `Aᵀ·x`
//!   gather of PMPN (`(Aᵀx)_j = Σ_{i ∈ out(j)} a_{i,j}·x_i`);
//! * in **CSC (in-edge) order** — `probs_in[k]` pairs with the `k`-th
//!   in-edge. Used by the `A·x` gather of the forward power method
//!   (`(Ax)_i = Σ_{j ∈ in(i)} a_{i,j}·x_j`).
//!
//! Materializing ~2·|E| doubles trades memory for branch-free inner loops —
//! the paper's `O(m)`-per-iteration costs all flow through these two arrays.
//!
//! [`TransitionMatrix`] is the *view* every solver consumes: a graph borrow
//! plus the probabilities, either owned ([`TransitionMatrix::new`]) or
//! borrowed from a cached [`TransitionProbs`]
//! ([`TransitionMatrix::with_probs`]) so long-lived engines pay the `O(|E|)`
//! construction once instead of per query.
//!
//! Both operator applications can run over multiple threads: rows are
//! partitioned into contiguous, edge-balanced ranges and each worker writes a
//! disjoint slice of `y`. Workers come from the shared
//! [`rtk_sparse::WorkerPool`] — parked threads re-dispatched per apply, not
//! respawned. Every row is still summed in its serial edge order, so results
//! are **bitwise identical** for any thread count.
//!
//! For long-lived engines there is additionally [`TransitionKernel`]: a flat
//! CSR/CSC gather layout (`row_ptr`/`col_idx`/`weight` contiguous arrays,
//! 32-bit column ids) built once next to [`TransitionProbs`]. A kernel-backed
//! view ([`TransitionMatrix::with_probs_and_kernel`]) runs its SpMV inner
//! loops through [`gather_dot`] — an unrolled gather over the contiguous
//! arrays with a **single accumulator in serial edge order**, so the result
//! is bitwise identical to the legacy per-node walk while letting the CPU
//! overlap the index loads.
//!
//! Solvers with many sources use the **blocked** forward operator
//! [`TransitionMatrix::apply_forward_lanes`]: `W` iterates stored
//! lane-interleaved (`x[v·W + j]`), advanced by one serial sweep over the
//! in-edges (`gather_lanes`). Each lane has its own accumulator and
//! receives the same products in the same edge order as [`gather_dot`], and
//! the restart term is added exactly as the single-vector apply adds it, so
//! every lane is bitwise identical to a single-vector apply — while one
//! index load and one weight load serve `W` vectors, and `W` independent
//! add chains replace one serial chain.

use crate::csr::{DiGraph, EdgeSplice, SpliceKind};
use rtk_sparse::WorkerPool;
use std::borrow::Cow;

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    }
}

/// Below this many edges a parallel apply falls back to one thread — the
/// spawn overhead would exceed the gather work.
const PARALLEL_EDGE_CUTOFF: usize = 8_192;

/// Owned transition probabilities for one graph — no graph borrow, so a
/// long-lived engine can cache this next to the graph it owns.
///
/// Tied to the graph it was computed from; [`TransitionProbs::matches`] is a
/// cheap structural check used to catch stale caches.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitionProbs {
    nodes: usize,
    /// Probability per out-edge, CSR order.
    probs_out: Vec<f64>,
    /// Probability per in-edge, CSC order.
    probs_in: Vec<f64>,
}

impl TransitionProbs {
    /// Builds the probability arrays. `O(|E|)`.
    ///
    /// # Panics
    /// Panics if the graph has dangling nodes (the builder policies prevent
    /// this; a zero out-degree column cannot be normalized).
    pub fn compute(graph: &DiGraph) -> Self {
        let n = graph.node_count() as u32;
        // Per-node inverse outgoing weight.
        let mut inv_out: Vec<f64> = Vec::with_capacity(n as usize);
        for u in 0..n {
            let s = graph.out_weight_sum(u);
            assert!(
                s > 0.0,
                "TransitionMatrix: node {u} is dangling; repair with a DanglingPolicy first"
            );
            inv_out.push(1.0 / s);
        }

        let mut probs_out = Vec::with_capacity(graph.edge_count());
        for u in 0..n {
            match graph.out_weights(u) {
                Some(ws) => probs_out.extend(ws.iter().map(|w| w * inv_out[u as usize])),
                None => {
                    probs_out.extend(std::iter::repeat_n(inv_out[u as usize], graph.out_degree(u)))
                }
            }
        }

        let mut probs_in = Vec::with_capacity(graph.edge_count());
        for v in 0..n {
            let sources = graph.in_neighbors(v);
            match graph.in_weights(v) {
                Some(ws) => {
                    probs_in.extend(sources.iter().zip(ws).map(|(&s, w)| w * inv_out[s as usize]))
                }
                None => probs_in.extend(sources.iter().map(|&s| inv_out[s as usize])),
            }
        }

        Self { nodes: n as usize, probs_out, probs_in }
    }

    /// Number of nodes the probabilities were computed for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges the probabilities were computed for.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.probs_out.len()
    }

    /// Cheap structural compatibility check against `graph`.
    #[inline]
    pub fn matches(&self, graph: &DiGraph) -> bool {
        self.nodes == graph.node_count() && self.probs_out.len() == graph.edge_count()
    }

    /// Incrementally maintains the probability arrays across one edge
    /// mutation: mirrors the structural splice, then recomputes the mutated
    /// source's row with the *identical arithmetic* [`Self::compute`] uses —
    /// so the result is bitwise-equal to a from-scratch recompute on the
    /// post-mutation graph. `graph` must already reflect the mutation that
    /// produced `splice`. `O(|E|)` for the splice, `O(out_degree(from))` for
    /// the row refresh.
    pub fn apply_splice(&mut self, graph: &DiGraph, splice: &EdgeSplice) {
        match splice.kind {
            SpliceKind::Inserted => {
                self.probs_out.insert(splice.out_pos, 0.0);
                self.probs_in.insert(splice.in_pos, 0.0);
            }
            SpliceKind::Removed => {
                self.probs_out.remove(splice.out_pos);
                self.probs_in.remove(splice.in_pos);
            }
            SpliceKind::Accumulated => {}
        }
        debug_assert!(self.matches(graph), "apply_splice: graph does not reflect the splice");
        self.recompute_row(graph, splice.from);
    }

    /// Recomputes node `u`'s out-row (and its CSC mirror positions) exactly
    /// as [`Self::compute`] would: `1 / out_weight_sum(u)` once, then
    /// `w * inv` (weighted) or `inv` (unweighted) per out-edge.
    fn recompute_row(&mut self, graph: &DiGraph, u: u32) {
        let s = graph.out_weight_sum(u);
        assert!(s > 0.0, "TransitionProbs: node {u} is dangling after mutation");
        let inv = 1.0 / s;
        let range = graph.out_edge_range(u);
        match graph.out_weights(u) {
            Some(ws) => {
                for (slot, w) in self.probs_out[range.clone()].iter_mut().zip(ws) {
                    *slot = w * inv;
                }
            }
            None => {
                for slot in self.probs_out[range.clone()].iter_mut() {
                    *slot = inv;
                }
            }
        }
        // Mirror into CSC order: the probability of edge u→t sits at the
        // position of source u within t's in-row.
        for (k, &t) in graph.out_neighbors(u).iter().enumerate() {
            let j = graph.in_neighbors(t).binary_search(&u).expect("CSC mirrors CSR");
            let in_pos = graph.in_edge_range(t).start + j;
            self.probs_in[in_pos] = self.probs_out[range.start + k];
        }
    }
}

/// Serial-order gather dot product `Σ weight[k]·x[col[k]]`, unrolled 4-wide.
///
/// The four products per step are independent (the CPU can overlap their
/// loads), but the additions still happen one at a time on a **single
/// accumulator in array order** — no reassociation — so the result is
/// bitwise identical to the naive `for` loop for any input.
#[inline]
pub fn gather_dot(cols: &[u32], weights: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), weights.len());
    let n = cols.len();
    let mut acc = 0.0;
    let mut k = 0;
    while k + 4 <= n {
        let a = weights[k] * x[cols[k] as usize];
        let b = weights[k + 1] * x[cols[k + 1] as usize];
        let c = weights[k + 2] * x[cols[k + 2] as usize];
        let d = weights[k + 3] * x[cols[k + 3] as usize];
        acc += a;
        acc += b;
        acc += c;
        acc += d;
        k += 4;
    }
    while k < n {
        acc += weights[k] * x[cols[k] as usize];
        k += 1;
    }
    acc
}

/// [`gather_dot`] over `W` lane-interleaved vectors at once: lane `j` of
/// the result is `Σ weight[k]·x[col[k]·W + j]`.
///
/// Each lane owns its accumulator, starts it at `0.0` and adds the products
/// one at a time in array order, exactly as [`gather_dot`] does for a single
/// vector; lanes never mix. So lane `j` is bitwise identical to
/// `gather_dot(cols, weights, x_j)` where `x_j` is the `j`-th de-interleaved
/// vector. One index load and one weight load serve all `W` lanes, and the
/// `W` independent add chains replace a single serial one.
#[inline]
fn gather_lanes<const W: usize>(cols: &[u32], weights: &[f64], x: &[f64]) -> [f64; W] {
    debug_assert_eq!(cols.len(), weights.len());
    let mut acc = [0.0; W];
    for (&c, &w) in cols.iter().zip(weights) {
        let start = c as usize * W;
        let xs: &[f64; W] = x[start..start + W].try_into().expect("lane row is W wide");
        for j in 0..W {
            acc[j] += w * xs[j];
        }
    }
    acc
}

/// Flat gather-kernel layout of the transition operator: both edge sides as
/// self-contained `row_ptr`/`col_idx`/`weight` triples with 32-bit column
/// ids, each row's ids and probabilities contiguous and adjacent.
///
/// Built once from a graph + [`TransitionProbs`] (`O(|E|)`), then shared by
/// every [`TransitionMatrix`] view over the same graph
/// ([`TransitionMatrix::with_probs_and_kernel`] is `O(1)`). The *transpose*
/// side (out-edges, CSR order) also backs the BCA ink-push loop via
/// [`TransitionMatrix::out_edges`].
#[derive(Clone, Debug, PartialEq)]
pub struct TransitionKernel {
    nodes: usize,
    /// CSC side, gathered by the forward operator: row `v` holds the
    /// sources of `v`'s in-edges.
    in_ptr: Vec<usize>,
    in_src: Vec<u32>,
    in_prob: Vec<f64>,
    /// CSR side, gathered by the transpose operator (and walked by BCA
    /// pushes): row `u` holds the targets of `u`'s out-edges.
    out_ptr: Vec<usize>,
    out_dst: Vec<u32>,
    out_prob: Vec<f64>,
}

impl TransitionKernel {
    /// Flattens `graph` + `probs` into the gather layout. `O(|E|)`.
    ///
    /// # Panics
    /// Panics when `probs` disagrees with `graph` on node or edge count.
    pub fn build(graph: &DiGraph, probs: &TransitionProbs) -> Self {
        assert!(
            probs.matches(graph),
            "TransitionKernel: probabilities do not match the graph \
             ({} nodes / {} edges vs {} nodes / {} edges)",
            probs.node_count(),
            probs.edge_count(),
            graph.node_count(),
            graph.edge_count()
        );
        let n = graph.node_count();
        let m = graph.edge_count();

        let mut in_ptr = Vec::with_capacity(n + 1);
        let mut in_src = Vec::with_capacity(m);
        in_ptr.push(0);
        for v in 0..n as u32 {
            in_src.extend_from_slice(graph.in_neighbors(v));
            in_ptr.push(in_src.len());
        }

        let mut out_ptr = Vec::with_capacity(n + 1);
        let mut out_dst = Vec::with_capacity(m);
        out_ptr.push(0);
        for u in 0..n as u32 {
            out_dst.extend_from_slice(graph.out_neighbors(u));
            out_ptr.push(out_dst.len());
        }

        Self {
            nodes: n,
            in_ptr,
            in_src,
            in_prob: probs.probs_in.clone(),
            out_ptr,
            out_dst,
            out_prob: probs.probs_out.clone(),
        }
    }

    /// Number of nodes the kernel was built for.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges the kernel was built for.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_dst.len()
    }

    /// Cheap structural compatibility check against `graph`.
    #[inline]
    pub fn matches(&self, graph: &DiGraph) -> bool {
        self.nodes == graph.node_count() && self.out_dst.len() == graph.edge_count()
    }

    /// In-edge row of `v`: `(sources, probabilities)`, CSC order.
    #[inline]
    fn in_row(&self, v: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.in_ptr[v], self.in_ptr[v + 1]);
        (&self.in_src[lo..hi], &self.in_prob[lo..hi])
    }

    /// Out-edge row of `u`: `(targets, probabilities)`, CSR order.
    #[inline]
    fn out_row(&self, u: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.out_ptr[u], self.out_ptr[u + 1]);
        (&self.out_dst[lo..hi], &self.out_prob[lo..hi])
    }

    /// Incrementally maintains the flat gather layout across one edge
    /// mutation: mirrors the structural splice into both sides, then copies
    /// the mutated source's refreshed probabilities out of `probs` (which
    /// must already have had [`TransitionProbs::apply_splice`] applied).
    /// Bitwise-equal to rebuilding the kernel from scratch on the
    /// post-mutation graph, asserted by unit tests. `O(|E|)`.
    pub fn apply_splice(&mut self, graph: &DiGraph, probs: &TransitionProbs, splice: &EdgeSplice) {
        match splice.kind {
            SpliceKind::Inserted => {
                self.out_dst.insert(splice.out_pos, splice.to);
                self.out_prob.insert(splice.out_pos, 0.0);
                self.in_src.insert(splice.in_pos, splice.from);
                self.in_prob.insert(splice.in_pos, 0.0);
                for p in self.out_ptr[splice.from as usize + 1..].iter_mut() {
                    *p += 1;
                }
                for p in self.in_ptr[splice.to as usize + 1..].iter_mut() {
                    *p += 1;
                }
            }
            SpliceKind::Removed => {
                self.out_dst.remove(splice.out_pos);
                self.out_prob.remove(splice.out_pos);
                self.in_src.remove(splice.in_pos);
                self.in_prob.remove(splice.in_pos);
                for p in self.out_ptr[splice.from as usize + 1..].iter_mut() {
                    *p -= 1;
                }
                for p in self.in_ptr[splice.to as usize + 1..].iter_mut() {
                    *p -= 1;
                }
            }
            SpliceKind::Accumulated => {}
        }
        debug_assert!(self.matches(graph), "apply_splice: graph does not reflect the splice");
        debug_assert!(probs.matches(graph), "apply_splice: probs were not spliced first");
        // Refresh the mutated row's probabilities on both sides from the
        // already-updated probability arrays (the kernel's ptr arrays mirror
        // the graph's offsets, so the graph ranges address both).
        let out_range = graph.out_edge_range(splice.from);
        self.out_prob[out_range.clone()].copy_from_slice(&probs.probs_out[out_range.clone()]);
        for &t in graph.out_neighbors(splice.from) {
            let j = graph.in_neighbors(t).binary_search(&splice.from).expect("CSC mirrors CSR");
            let in_pos = graph.in_edge_range(t).start + j;
            self.in_prob[in_pos] = probs.probs_in[in_pos];
        }
    }
}

/// Precomputed transition probabilities over a [`DiGraph`].
///
/// Holds a borrow of the graph; construct one per graph and share it across
/// solvers, or build it in `O(1)` from a cached [`TransitionProbs`] (and
/// optionally a cached [`TransitionKernel`] for the gather-layout SpMV).
#[derive(Clone, Debug)]
pub struct TransitionMatrix<'g> {
    graph: &'g DiGraph,
    probs: Cow<'g, TransitionProbs>,
    kernel: Option<Cow<'g, TransitionKernel>>,
}

impl<'g> TransitionMatrix<'g> {
    /// Builds the probability arrays. `O(|E|)`.
    ///
    /// # Panics
    /// Panics if the graph has dangling nodes (the builder policies prevent
    /// this; a zero out-degree column cannot be normalized).
    pub fn new(graph: &'g DiGraph) -> Self {
        Self { graph, probs: Cow::Owned(TransitionProbs::compute(graph)), kernel: None }
    }

    /// Like [`Self::new`], but also builds the owned [`TransitionKernel`] so
    /// all applies run the gather layout. `O(|E|)`, twice.
    pub fn new_kernelized(graph: &'g DiGraph) -> Self {
        let probs = TransitionProbs::compute(graph);
        let kernel = TransitionKernel::build(graph, &probs);
        Self { graph, probs: Cow::Owned(probs), kernel: Some(Cow::Owned(kernel)) }
    }

    /// Wraps a cached [`TransitionProbs`] in `O(1)` — the hot path for
    /// engines that own both the graph and the cache.
    ///
    /// The caller owns the invariant that `probs` was computed from this
    /// exact graph (the intended pattern: compute once right after the graph,
    /// never mutate either). The structural check below is a cheap backstop,
    /// **not** a full validation — two different graphs with equal node and
    /// edge counts would pass it and silently mis-associate probabilities.
    ///
    /// # Panics
    /// Panics when `probs` disagrees with `graph` on node or edge count.
    pub fn with_probs(graph: &'g DiGraph, probs: &'g TransitionProbs) -> Self {
        assert!(
            probs.matches(graph),
            "TransitionMatrix: cached probabilities do not match the graph \
             ({} nodes / {} edges vs {} nodes / {} edges)",
            probs.node_count(),
            probs.edge_count(),
            graph.node_count(),
            graph.edge_count()
        );
        Self { graph, probs: Cow::Borrowed(probs), kernel: None }
    }

    /// [`Self::with_probs`] plus a cached [`TransitionKernel`] — the `O(1)`
    /// hot path for engines that own graph, probabilities, *and* kernel.
    ///
    /// # Panics
    /// Panics when `probs` or `kernel` disagrees with `graph` on node or
    /// edge count.
    pub fn with_probs_and_kernel(
        graph: &'g DiGraph,
        probs: &'g TransitionProbs,
        kernel: &'g TransitionKernel,
    ) -> Self {
        let mut view = Self::with_probs(graph, probs);
        assert!(
            kernel.matches(graph),
            "TransitionMatrix: cached kernel does not match the graph \
             ({} nodes / {} edges vs {} nodes / {} edges)",
            kernel.node_count(),
            kernel.edge_count(),
            graph.node_count(),
            graph.edge_count()
        );
        view.kernel = Some(Cow::Borrowed(kernel));
        view
    }

    /// Builds an owned [`TransitionKernel`] for this view's graph and
    /// probabilities — what engines cache next to their [`TransitionProbs`].
    pub fn build_kernel(&self) -> TransitionKernel {
        TransitionKernel::build(self.graph, &self.probs)
    }

    /// Whether the gather kernel backs this view's applies.
    #[inline]
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// Consumes the view, returning owned probabilities (cloning only when
    /// the view borrowed a cache).
    pub fn into_probs(self) -> TransitionProbs {
        self.probs.into_owned()
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g DiGraph {
        self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Transition probabilities parallel to `graph.out_neighbors(node)`.
    #[inline]
    pub fn out_probs(&self, node: u32) -> &[f64] {
        &self.probs.probs_out[self.graph.out_edge_range(node)]
    }

    /// Transition probabilities parallel to `graph.in_neighbors(node)`.
    #[inline]
    pub fn in_probs(&self, node: u32) -> &[f64] {
        &self.probs.probs_in[self.graph.in_edge_range(node)]
    }

    /// Out-edge row of `node` as `(targets, probabilities)` — the BCA
    /// ink-push view. Served from the kernel's contiguous arrays when one is
    /// attached (values identical either way), so the refinement inner loop
    /// walks the same cache lines as the SpMV.
    #[inline]
    pub fn out_edges(&self, node: u32) -> (&[u32], &[f64]) {
        match self.kernel.as_deref() {
            Some(kernel) => kernel.out_row(node as usize),
            None => (self.graph.out_neighbors(node), self.out_probs(node)),
        }
    }

    /// `y ← (1−α)·A·x + α·e_restart`, the forward RWR operator (Eq. 12).
    ///
    /// Gathers over in-edges; `y` is fully overwritten.
    pub fn apply_forward(&self, alpha: f64, x: &[f64], restart: u32, y: &mut [f64]) {
        self.apply_forward_threaded(alpha, x, restart, y, 1);
    }

    /// [`Self::apply_forward`] over `threads` workers (`0` = all cores).
    /// Bitwise identical to the serial result for any thread count.
    pub fn apply_forward_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let damp = 1.0 - alpha;
        match self.kernel.as_deref() {
            Some(kernel) => self.for_rows(y, threads, Direction::Forward, move |_, _, vi| {
                let (src, probs) = kernel.in_row(vi);
                damp * gather_dot(src, probs, x)
            }),
            None => self.for_rows(y, threads, Direction::Forward, |view, v, _| {
                let sources = view.graph.in_neighbors(v);
                let probs = view.in_probs(v);
                let mut acc = 0.0;
                for (&s, &p) in sources.iter().zip(probs) {
                    acc += p * x[s as usize];
                }
                damp * acc
            }),
        }
        y[restart as usize] += alpha;
    }

    /// `y ← (1−α)·A·x + α·restart`, the forward operator with a dense restart
    /// distribution (Eq. 3's personalized form), over `threads` workers.
    pub fn apply_forward_restart_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: &[f64],
        y: &mut [f64],
        threads: usize,
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(restart.len(), n);
        assert_eq!(y.len(), n);
        let damp = 1.0 - alpha;
        match self.kernel.as_deref() {
            Some(kernel) => self.for_rows(y, threads, Direction::Forward, move |_, _, vi| {
                let (src, probs) = kernel.in_row(vi);
                damp * gather_dot(src, probs, x) + alpha * restart[vi]
            }),
            None => self.for_rows(y, threads, Direction::Forward, |view, v, _| {
                let sources = view.graph.in_neighbors(v);
                let probs = view.in_probs(v);
                let mut acc = 0.0;
                for (&s, &p) in sources.iter().zip(probs) {
                    acc += p * x[s as usize];
                }
                damp * acc + alpha * restart[v as usize]
            }),
        }
    }

    /// The forward operator on `W` iterates at once, stored lane-interleaved
    /// (`x[v·W + j]` is entry `v` of lane `j`): lane `j` gets
    /// `y_j ← (1−α)·A·x_j + α·e_{restarts[j]}`, and a lane whose restart is
    /// `None` gets no restart term (an idle lane with a zero iterate stays
    /// zero).
    ///
    /// One serial sweep over the in-edges serves every lane. Each lane's
    /// entry is summed by `gather_lanes` in the serial edge order and
    /// finished as `damp·acc + α·r` with `r` its restart entry (`1.0` or
    /// `0.0`), exactly as [`Self::apply_forward_restart_threaded`] finishes
    /// a row, so lane `j` is bitwise identical to that apply with the dense
    /// restart `e_{restarts[j]}` — on plain and kernel-backed views alike.
    pub fn apply_forward_lanes<const W: usize>(
        &self,
        alpha: f64,
        x: &[f64],
        restarts: &[Option<u32>; W],
        y: &mut [f64],
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n * W, "apply_forward_lanes: x must hold n·W entries");
        assert_eq!(y.len(), n * W, "apply_forward_lanes: y must hold n·W entries");
        let damp = 1.0 - alpha;
        for (v, out) in y.chunks_exact_mut(W).enumerate() {
            let (cols, weights) = match self.kernel.as_deref() {
                Some(kernel) => kernel.in_row(v),
                None => (self.graph.in_neighbors(v as u32), self.in_probs(v as u32)),
            };
            let acc = gather_lanes::<W>(cols, weights, x);
            for j in 0..W {
                let restart = if restarts[j] == Some(v as u32) { 1.0 } else { 0.0 };
                out[j] = damp * acc[j] + alpha * restart;
            }
        }
    }

    /// `y ← (1−α)·Aᵀ·x + α·e_restart`, the PMPN operator (Eq. 13).
    ///
    /// Gathers over out-edges; `y` is fully overwritten.
    pub fn apply_transpose(&self, alpha: f64, x: &[f64], restart: u32, y: &mut [f64]) {
        self.apply_transpose_threaded(alpha, x, restart, y, 1);
    }

    /// [`Self::apply_transpose`] over `threads` workers (`0` = all cores).
    /// Bitwise identical to the serial result for any thread count.
    pub fn apply_transpose_threaded(
        &self,
        alpha: f64,
        x: &[f64],
        restart: u32,
        y: &mut [f64],
        threads: usize,
    ) {
        let n = self.node_count();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        let damp = 1.0 - alpha;
        match self.kernel.as_deref() {
            Some(kernel) => self.for_rows(y, threads, Direction::Transpose, move |_, _, ui| {
                let (dst, probs) = kernel.out_row(ui);
                damp * gather_dot(dst, probs, x)
            }),
            None => self.for_rows(y, threads, Direction::Transpose, |view, u, _| {
                let targets = view.graph.out_neighbors(u);
                let probs = view.out_probs(u);
                let mut acc = 0.0;
                for (&t, &p) in targets.iter().zip(probs) {
                    acc += p * x[t as usize];
                }
                damp * acc
            }),
        }
        y[restart as usize] += alpha;
    }

    /// Runs `row` for every node, writing `y[v] = row(self, v)` — serially,
    /// or across edge-balanced contiguous node ranges when `threads > 1` and
    /// the graph is large enough to amortize the dispatch. Workers come from
    /// the process-wide [`WorkerPool`] (parked threads, no spawn per apply).
    /// Each worker owns a disjoint `y` slice, and each row sums in its
    /// serial edge order, so the output is identical for any thread count.
    fn for_rows<F>(&self, y: &mut [f64], threads: usize, direction: Direction, row: F)
    where
        F: Fn(&Self, u32, usize) -> f64 + Sync,
    {
        let n = self.node_count();
        let mut threads = resolve_threads(threads).min(n.max(1));
        if self.graph.edge_count() < PARALLEL_EDGE_CUTOFF {
            threads = 1;
        }
        if threads <= 1 {
            for v in 0..n as u32 {
                y[v as usize] = row(self, v, v as usize);
            }
            return;
        }

        let bounds = self.edge_balanced_partition(threads, direction);
        WorkerPool::global().scope(|scope| {
            let mut rest = y;
            for w in 0..threads {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let row = &row;
                scope.spawn(move || {
                    for v in lo..hi {
                        chunk[v - lo] = row(self, v as u32, v);
                    }
                });
            }
        });
    }

    /// Splits `0..n` into `parts` contiguous node ranges with roughly equal
    /// edge counts on the gathered side (in-edges for the forward operator,
    /// out-edges for the transpose). Returns `parts + 1` boundaries.
    fn edge_balanced_partition(&self, parts: usize, direction: Direction) -> Vec<usize> {
        let n = self.node_count();
        let m = self.graph.edge_count();
        let start_of = |node: usize| -> usize {
            if node >= n {
                return m;
            }
            match direction {
                Direction::Forward => self.graph.in_edge_range(node as u32).start,
                Direction::Transpose => self.graph.out_edge_range(node as u32).start,
            }
        };
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0);
        for part in 1..parts {
            let target = m * part / parts;
            // Smallest node whose edge range starts at or past the target,
            // clamped to keep boundaries monotone.
            let mut lo = *bounds.last().expect("bounds never empty");
            let mut hi = n;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if start_of(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            bounds.push(lo);
        }
        bounds.push(n);
        bounds
    }

    /// Materializes column `j` of `A` as a dense vector (test/oracle helper).
    pub fn column_dense(&self, j: u32) -> Vec<f64> {
        let mut col = vec![0.0; self.node_count()];
        for (&t, &p) in self.graph.out_neighbors(j).iter().zip(self.out_probs(j)) {
            col[t as usize] += p;
        }
        col
    }
}

/// Which edge direction an apply gathers over (partition balancing).
#[derive(Clone, Copy, Debug)]
enum Direction {
    Forward,
    Transpose,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DanglingPolicy, GraphBuilder};

    fn toy() -> DiGraph {
        // Figure 1 toy graph (0-based): 0→{1,3,5}, 1→{0,2}, 2→{0,1},
        // 3→{1,4}, 4→{1}, 5→{1,3}.
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
    fn columns_are_stochastic() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        for j in 0..6 {
            let col = t.column_dense(j);
            let sum: f64 = col.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn uniform_probabilities_unweighted() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        assert_eq!(t.out_probs(0), &[1.0 / 3.0; 3]);
        assert_eq!(t.out_probs(4), &[1.0]);
    }

    #[test]
    fn weighted_probabilities_normalize() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 3.0).unwrap();
        b.add_weighted_edge(0, 2, 1.0).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build(DanglingPolicy::Error).unwrap();
        let t = TransitionMatrix::new(&g);
        assert_eq!(t.out_probs(0), &[0.75, 0.25]);
        // CSC side: in-probs of node 1 correspond to source 0.
        assert_eq!(t.in_probs(1), &[0.75]);
    }

    #[test]
    fn forward_operator_matches_dense_multiply() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64 / 21.0).collect();
        let mut y = vec![0.0; n];
        t.apply_forward(alpha, &x, 2, &mut y);

        // Dense reference.
        let mut expect = vec![0.0; n];
        for j in 0..n as u32 {
            let col = t.column_dense(j);
            for i in 0..n {
                expect[i] += (1.0 - alpha) * col[i] * x[j as usize];
            }
        }
        expect[2] += alpha;
        for i in 0..n {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_operator_matches_dense_multiply() {
        let g = toy();
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let mut y = vec![0.0; n];
        t.apply_transpose(alpha, &x, 0, &mut y);

        let mut expect = vec![0.0; n];
        for j in 0..n as u32 {
            let col = t.column_dense(j);
            for i in 0..n {
                expect[j as usize] += (1.0 - alpha) * col[i] * x[i];
            }
        }
        expect[0] += alpha;
        for i in 0..n {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_probs_view_matches_owned_view() {
        let g = toy();
        let probs = TransitionProbs::compute(&g);
        assert!(probs.matches(&g));
        assert_eq!(probs.node_count(), 6);
        assert_eq!(probs.edge_count(), g.edge_count());
        let owned = TransitionMatrix::new(&g);
        let cached = TransitionMatrix::with_probs(&g, &probs);
        for u in 0..6u32 {
            assert_eq!(owned.out_probs(u), cached.out_probs(u));
            assert_eq!(owned.in_probs(u), cached.in_probs(u));
        }
        // Round-trip through into_probs preserves the arrays.
        assert_eq!(owned.into_probs(), probs);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn stale_cache_is_rejected() {
        let g = toy();
        let other =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let probs = TransitionProbs::compute(&other);
        let _ = TransitionMatrix::with_probs(&g, &probs);
    }

    #[test]
    fn threaded_applies_are_bitwise_identical() {
        // Large enough to clear PARALLEL_EDGE_CUTOFF so threads really run.
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(4_000, 20_000, 11)).unwrap();
        assert!(g.edge_count() >= super::PARALLEL_EDGE_CUTOFF);
        let t = TransitionMatrix::new(&g);
        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 101) as f64 / 101.0).collect();
        let restart_vec: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 / 21.0).collect();

        let mut serial = vec![0.0; n];
        let mut serial_t = vec![0.0; n];
        let mut serial_r = vec![0.0; n];
        t.apply_forward_threaded(alpha, &x, 3, &mut serial, 1);
        t.apply_transpose_threaded(alpha, &x, 3, &mut serial_t, 1);
        t.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut serial_r, 1);

        for threads in [2usize, 3, 4, 8] {
            let mut y = vec![0.0; n];
            t.apply_forward_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial, "forward, {threads} threads");
            t.apply_transpose_threaded(alpha, &x, 3, &mut y, threads);
            assert_eq!(y, serial_t, "transpose, {threads} threads");
            t.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut y, threads);
            assert_eq!(y, serial_r, "forward restart, {threads} threads");
        }
    }

    #[test]
    fn kernelized_applies_are_bitwise_identical_to_legacy() {
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(4_000, 20_000, 23)).unwrap();
        let legacy = TransitionMatrix::new(&g);
        let probs = TransitionProbs::compute(&g);
        let kernel = TransitionKernel::build(&g, &probs);
        assert!(kernel.matches(&g));
        assert_eq!(kernel.node_count(), g.node_count());
        assert_eq!(kernel.edge_count(), g.edge_count());
        let fast = TransitionMatrix::with_probs_and_kernel(&g, &probs, &kernel);
        assert!(fast.has_kernel() && !legacy.has_kernel());

        let n = g.node_count();
        let alpha = 0.15;
        let x: Vec<f64> = (0..n).map(|i| ((i * 41 + 3) % 97) as f64 / 97.0).collect();
        let restart_vec: Vec<f64> = (0..n).map(|i| ((i * 17) % 5) as f64 / 10.0).collect();
        for threads in [1usize, 2, 4, 8] {
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            legacy.apply_forward_threaded(alpha, &x, 7, &mut want, 1);
            fast.apply_forward_threaded(alpha, &x, 7, &mut got, threads);
            assert_eq!(got, want, "forward, kernel, {threads} threads");
            legacy.apply_transpose_threaded(alpha, &x, 7, &mut want, 1);
            fast.apply_transpose_threaded(alpha, &x, 7, &mut got, threads);
            assert_eq!(got, want, "transpose, kernel, {threads} threads");
            legacy.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut want, 1);
            fast.apply_forward_restart_threaded(alpha, &x, &restart_vec, &mut got, threads);
            assert_eq!(got, want, "forward restart, kernel, {threads} threads");
        }
    }

    #[test]
    fn out_edges_is_identical_with_and_without_kernel() {
        let g = toy();
        let legacy = TransitionMatrix::new(&g);
        let kernelized = TransitionMatrix::new_kernelized(&g);
        for u in 0..g.node_count() as u32 {
            let (lt, lp) = legacy.out_edges(u);
            let (kt, kp) = kernelized.out_edges(u);
            assert_eq!(lt, g.out_neighbors(u));
            assert_eq!((lt, lp), (kt, kp), "node {u}");
        }
    }

    #[test]
    fn gather_dot_matches_naive_loop_bitwise() {
        // Awkward lengths around the unroll width, values chosen so the sum
        // order matters in the low bits.
        let x: Vec<f64> = (0..64).map(|i| 1.0 / (i + 1) as f64).collect();
        for len in 0..23usize {
            let cols: Vec<u32> = (0..len).map(|k| ((k * 29 + 5) % 64) as u32).collect();
            let weights: Vec<f64> = (0..len).map(|k| ((k % 7) + 1) as f64 / 7.0).collect();
            let mut naive = 0.0;
            for (&c, &w) in cols.iter().zip(&weights) {
                naive += w * x[c as usize];
            }
            let fast = gather_dot(&cols, &weights, &x);
            assert_eq!(fast.to_bits(), naive.to_bits(), "len {len}");
        }
    }

    #[test]
    fn gather_lanes_matches_gather_dot_per_lane_bitwise() {
        const W: usize = 5;
        let rows = 64;
        let x: Vec<f64> = (0..rows * W).map(|i| 1.0 / (i + 3) as f64).collect();
        for len in 0..23usize {
            let cols: Vec<u32> = (0..len).map(|k| ((k * 29 + 5) % rows) as u32).collect();
            let weights: Vec<f64> = (0..len).map(|k| ((k % 7) + 1) as f64 / 7.0).collect();
            let lanes = gather_lanes::<W>(&cols, &weights, &x);
            for (j, lane) in lanes.iter().enumerate() {
                let xj: Vec<f64> = (0..rows).map(|v| x[v * W + j]).collect();
                let want = gather_dot(&cols, &weights, &xj);
                assert_eq!(lane.to_bits(), want.to_bits(), "len {len}, lane {j}");
            }
        }
    }

    #[test]
    fn lane_apply_matches_single_restart_apply_bitwise() {
        const W: usize = 4;
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(500, 2_500, 9)).unwrap();
        let probs = TransitionProbs::compute(&g);
        let kernel = TransitionKernel::build(&g, &probs);
        let n = g.node_count();
        let alpha = 0.15;
        // Lane 2 is idle: zero iterate, no restart.
        let restarts = [Some(3), Some(3), None, Some(417)];
        let mut x = vec![0.0; n * W];
        for v in 0..n {
            for (j, restart) in restarts.iter().enumerate() {
                if restart.is_some() {
                    x[v * W + j] = ((v * 31 + j * 7 + 1) % 89) as f64 / 89.0;
                }
            }
        }
        for view in [
            TransitionMatrix::new(&g),
            TransitionMatrix::with_probs_and_kernel(&g, &probs, &kernel),
        ] {
            let mut y = vec![f64::NAN; n * W];
            view.apply_forward_lanes::<W>(alpha, &x, &restarts, &mut y);
            for (j, restart) in restarts.iter().enumerate() {
                let xj: Vec<f64> = (0..n).map(|v| x[v * W + j]).collect();
                let mut dense_restart = vec![0.0; n];
                if let Some(u) = restart {
                    dense_restart[*u as usize] = 1.0;
                }
                let mut want = vec![0.0; n];
                view.apply_forward_restart_threaded(alpha, &xj, &dense_restart, &mut want, 1);
                let got: Vec<u64> = (0..n).map(|v| y[v * W + j].to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "lane {j}, kernel {}", view.has_kernel());
            }
            assert!((0..n).all(|v| y[v * W + 2] == 0.0), "idle lane stays zero");
        }
    }

    #[test]
    #[should_panic(expected = "kernel does not match")]
    fn stale_kernel_is_rejected() {
        let g = toy();
        let probs = TransitionProbs::compute(&g);
        let other =
            GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)], DanglingPolicy::Error).unwrap();
        let other_probs = TransitionProbs::compute(&other);
        let kernel = TransitionKernel::build(&other, &other_probs);
        let _ = TransitionMatrix::with_probs_and_kernel(&g, &probs, &kernel);
    }

    #[test]
    fn partition_covers_all_rows_monotonically() {
        let g = crate::gen::rmat(&crate::gen::RmatConfig::new(2_000, 12_000, 5)).unwrap();
        let t = TransitionMatrix::new(&g);
        for parts in [1usize, 2, 3, 7, 16] {
            for direction in [Direction::Forward, Direction::Transpose] {
                let bounds = t.edge_balanced_partition(parts, direction);
                assert_eq!(bounds.len(), parts + 1);
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), g.node_count());
                assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
            }
        }
    }

    #[test]
    fn resolve_threads_resolves_zero_to_cores() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn rejects_dangling_graph() {
        // Bypass the builder's repair by building a graph that only the
        // transition matrix inspects: node 1 has no out-edges.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        // Build with SelfLoop, then strip: not possible through the public
        // API, so simulate by constructing the unrepaired edge set directly.
        let g = DiGraph::from_sorted_edges(2, vec![(0, 1, 1.0)], false);
        let _ = TransitionMatrix::new(&g);
    }

    #[test]
    fn spliced_probs_and_kernel_match_fresh_rebuild_bitwise() {
        // Drive a long add/remove script over a seeded R-MAT graph and pin
        // the incremental probability + kernel maintenance to a from-scratch
        // recompute after every single step — the graph-layer half of the
        // dynamic-graph determinism contract.
        let mut g = crate::gen::rmat(&crate::gen::RmatConfig::new(60, 240, 7)).unwrap();
        let mut probs = TransitionProbs::compute(&g);
        let mut kernel = TransitionKernel::build(&g, &probs);
        let script: &[(bool, u32, u32, f64)] = &[
            (true, 0, 59, 1.0),
            (true, 59, 0, 2.5),
            (true, 0, 59, 1.0), // accumulate
            (true, 17, 23, 0.125),
            (false, 0, 59, 0.0),
            (true, 23, 17, 1.0),
            (false, 59, 0, 0.0),
            (true, 5, 5, 1.0),
            (false, 17, 23, 0.0),
        ];
        for &(add, f, t, w) in script {
            let splice = if add {
                match g.add_edge(f, t, w) {
                    Ok(s) => s,
                    Err(_) => continue, // e.g. node already had this edge shape
                }
            } else {
                match g.remove_edge(f, t) {
                    Ok(s) => s,
                    Err(_) => continue,
                }
            };
            probs.apply_splice(&g, &splice);
            kernel.apply_splice(&g, &probs, &splice);
            assert_eq!(probs, TransitionProbs::compute(&g), "probs after {:?}", (add, f, t));
            assert_eq!(
                kernel,
                TransitionKernel::build(&g, &probs),
                "kernel after {:?}",
                (add, f, t)
            );
        }
    }

    #[test]
    fn spliced_view_applies_identically_to_rebuilt_view() {
        // After a mutation, a kernel-backed view over the spliced caches
        // must produce the same operator outputs as a fresh build.
        let mut g = crate::gen::erdos_renyi(&crate::gen::ErdosRenyiConfig {
            nodes: 40,
            edges: 160,
            seed: 3,
        })
        .unwrap();
        let mut probs = TransitionProbs::compute(&g);
        let mut kernel = TransitionKernel::build(&g, &probs);
        let splice = g.add_edge(1, 38, 3.0).unwrap();
        probs.apply_splice(&g, &splice);
        kernel.apply_splice(&g, &probs, &splice);

        let spliced = TransitionMatrix::with_probs_and_kernel(&g, &probs, &kernel);
        let fresh = TransitionMatrix::new_kernelized(&g);
        let x: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y1 = vec![0.0; 40];
        let mut y2 = vec![0.0; 40];
        spliced.apply_forward(0.15, &x, 0, &mut y1);
        fresh.apply_forward(0.15, &x, 0, &mut y2);
        assert_eq!(y1, y2);
        spliced.apply_transpose(0.15, &x, 0, &mut y1);
        fresh.apply_transpose(0.15, &x, 0, &mut y2);
        assert_eq!(y1, y2);
    }
}
