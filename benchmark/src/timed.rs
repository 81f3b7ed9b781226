//! The untraced, timed runs: set-up, warm-up, the closed-loop timed phase
//! and the answer checks, which run outside the timed clock.

use crate::oracle::{self, Checked};
use crate::workload::{
    build_engine, graph, nproc, read_options, Kind, Rng, Stratified, Update, UpdateStream,
    Workload, STREAM_ORACLE, STREAM_READS, STREAM_WARMUP,
};
use rtk_core::{ReverseTopkEngine, ShardEngine};
use rtk_graph::NodeId;
use rtk_index::ShardSlice;
use rtk_server::{Client, Router, RouterConfig, Server, ServerConfig, ServerHandle};
use std::process::Command;
use std::time::{Duration, Instant};

/// Shards of the routed tier.
const SHARDS: usize = 2;

/// Reads of `routed_k10` whose routed answer is compared bit for bit with
/// the in-process answer.
const ROUTED_COMPARED: usize = 150;

/// Raw measurements of one timed run.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub reads_ms: Vec<f64>,
    pub writes_ms: Vec<f64>,
    /// Wall time of the timed phase, answer checks excluded.
    pub timed_s: f64,
    pub attempted: u64,
    /// Operations that errored or failed an answer check.
    pub failed: u64,
    pub errors: u64,
    pub oracle: Checked,
    /// Routed answers compared with in-process answers, and how many differed.
    pub compared: u64,
    pub differed: u64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(w: &Workload, seed: u64, seconds: u64) -> Measured {
    match w.kind {
        Kind::LocalK50 | Kind::UpdateMix => run_in_process(w, seed, seconds),
        Kind::RoutedK10 => run_routed(w, seed, seconds),
    }
}

/// The flag that makes the program run one set-up, print its seconds and
/// exit.
pub const SETUP_ONLY: &str = "--setup-only";

/// One set-up: the graph, the engine and, for `routed_k10`, the shard split
/// and the tier start-up. Returns its seconds.
pub fn set_up_once(w: &Workload) -> (ReverseTopkEngine, Option<Tier>, f64) {
    let t = Instant::now();
    let mut engine = build_engine(graph(w));
    // One solver thread per request: the two clients keep the cores busy.
    let tier = (w.kind == Kind::RoutedK10).then(|| Tier::start(&mut engine, 1));
    (engine, tier, t.elapsed().as_secs_f64())
}

/// All but one of the `w.setups` set-ups run first, each in a child process
/// of its own, so the measured process holds one set-up's memory history
/// and its `VmHWM` is not an artifact of repeating the set-up.
fn set_up(w: &Workload) -> (ReverseTopkEngine, Option<Tier>, Vec<f64>) {
    let exe = std::env::current_exe().expect("own executable");
    let mut times: Vec<f64> = (1..w.setups)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", "0", "--seconds", "1", "--trace", "0"])
                .args([SETUP_ONLY, "1"])
                .output()
                .expect("set-up child runs");
            assert!(
                out.status.success(),
                "set-up child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout.trim().parse().expect("set-up child prints its seconds")
        })
        .collect();
    let (engine, tier, seconds) = set_up_once(w);
    times.push(seconds);
    (engine, tier, times)
}

/// The seeded warm-up prefix: frozen reads, so an index under update
/// stays untouched.
pub fn warm_up(engine: &mut ReverseTopkEngine, w: &Workload, seed: u64) {
    let mut stream = Stratified::queries(engine.graph(), w.warmup_reads, seed, STREAM_WARMUP);
    let opts = read_options(false);
    for _ in 0..w.warmup_reads {
        let q = stream.next_node();
        std::hint::black_box(engine.query_with(NodeId(q), w.k, &opts).ok());
    }
}

/// Indices, among the first `min_reads` reads, of the reads the oracle checks.
fn oracle_picks(w: &Workload, rng: &mut Rng) -> Vec<usize> {
    let all: Vec<usize> = (0..w.min_reads).collect();
    let mut picks = rng.sample(&all, w.oracle_reads);
    picks.sort_unstable();
    picks
}

/// `local_k50` and `update_mix`: one in-process caller.
fn run_in_process(w: &Workload, seed: u64, seconds: u64) -> Measured {
    let (mut engine, _, setup_s) = set_up(w);
    let mut m = Measured { setup_s, ..Measured::default() };
    warm_up(&mut engine, w, seed);

    let update = w.reads_per_write > 0;
    let opts = read_options(update);
    let mut reads = Stratified::queries(engine.graph(), w.min_reads, seed, STREAM_READS);
    let mut updates = update.then(|| UpdateStream::new(engine.graph(), seed));
    let mut rng = Rng::new(seed, STREAM_ORACLE);
    let picks = oracle_picks(w, &mut rng);
    let deadline = Duration::from_secs(seconds);
    let mut timed = Duration::ZERO;
    let mut op = 0usize;
    // Whole passes of the read stream only, so every run asks one node of
    // every PageRank band the same number of times.
    while timed < deadline
        || m.reads_ms.is_empty()
        || !m.reads_ms.len().is_multiple_of(w.min_reads)
        || m.writes_ms.len() < w.min_writes
    {
        let segment = Instant::now();
        m.attempted += 1;
        if let Some(updates) = updates.as_mut().filter(|_| op.is_multiple_of(w.reads_per_write + 1))
        {
            let u: Update = updates.next_update();
            let t = Instant::now();
            let r = u.apply(&mut engine);
            m.writes_ms.push(ms(t));
            if r.is_err() {
                m.errors += 1;
                m.failed += 1;
            }
            timed += segment.elapsed();
        } else {
            let q = reads.next_node();
            let t = Instant::now();
            let r = engine.query_with(NodeId(q), w.k, &opts);
            m.reads_ms.push(ms(t));
            timed += segment.elapsed();
            // Checked at once, on the graph the read ran against, with the
            // timed clock stopped.
            let i = m.reads_ms.len() - 1;
            match r {
                Err(_) => {
                    m.errors += 1;
                    m.failed += 1;
                }
                Ok(r) if picks.binary_search(&i).is_ok() => {
                    let mut answer = r.nodes().to_vec();
                    answer.sort_unstable();
                    let c = oracle::check(&engine, q, w.k, &answer, w.oracle_per_side, &mut rng);
                    m.oracle.checks += c.checks;
                    m.oracle.mismatches += c.mismatches;
                    m.failed += u64::from(c.mismatches > 0);
                }
                Ok(_) => {}
            }
        }
        op += 1;
    }
    m.timed_s = timed.as_secs_f64();
    m
}

/// A routed tier: `SHARDS` shard-only backends behind a router, on
/// loopback, with `nproc` workers each.
pub struct Tier {
    pub router: ServerHandle,
    pub backends: Vec<ServerHandle>,
}

impl Tier {
    /// Splits `engine`'s index into `SHARDS` node ranges (a layout change
    /// that keeps every answer) and starts the backends, each solving with
    /// `query_threads`, and the router.
    pub fn start(engine: &mut ReverseTopkEngine, query_threads: usize) -> Tier {
        engine.reshard(SHARDS);
        let backends: Vec<ServerHandle> = (0..SHARDS)
            .map(|sid| {
                let slice = ShardSlice::from_index(engine.index(), sid).expect("shard in range");
                let shard = ShardEngine::from_parts(engine.graph().clone(), slice)
                    .expect("slice matches its graph");
                let config =
                    ServerConfig { workers: nproc(), query_threads, ..ServerConfig::default() };
                Server::bind_shard(shard, "127.0.0.1:0", config).expect("bind backend").spawn()
            })
            .collect();
        let addrs: Vec<String> = backends.iter().map(|h| h.addr().to_string()).collect();
        let config = RouterConfig { workers: nproc(), ..RouterConfig::default() };
        let router = Router::bind(&addrs, "127.0.0.1:0", config).expect("bind router").spawn();
        Tier { router, backends }
    }

    /// Shuts the router down (which stops its backends) and joins them all.
    pub fn stop(self) {
        let mut client = Client::connect(self.router.addr()).expect("connect to stop");
        client.shutdown().expect("router shutdown");
        self.router.join().expect("router exits cleanly");
        for b in self.backends {
            b.join().expect("backend exits cleanly");
        }
    }
}

/// One read's outcome as a client saw it: latency, query, and the answer's
/// nodes and proximity bits (`None` when the request failed).
type ClientRead = (f64, u32, Option<(Vec<u32>, Vec<u64>)>);

/// `routed_k10`: `clients` closed-loop clients, one connection each.
fn run_routed(w: &Workload, seed: u64, seconds: u64) -> Measured {
    let (mut engine, tier, setup_s) = set_up(w);
    let tier = tier.expect("routed set-up starts a tier");
    let mut m = Measured { setup_s, ..Measured::default() };
    let addr = tier.router.addr();

    let warm: Vec<u32> = {
        let mut s = Stratified::queries(engine.graph(), w.warmup_reads, seed, STREAM_WARMUP);
        (0..w.warmup_reads).map(|_| s.next_node()).collect()
    };
    let deadline = Duration::from_secs(seconds);
    let graph = engine.graph();
    let (per_client, timed) = std::thread::scope(|scope| {
        let mut clients = Vec::with_capacity(w.clients);
        for c in 0..w.clients {
            let mut client = Client::connect(addr).expect("client connects");
            for &q in warm.iter().skip(c).step_by(w.clients) {
                std::hint::black_box(client.reverse_topk(q, w.k as u32, false).ok());
            }
            clients.push(client);
        }
        let t0 = Instant::now();
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    // Each client runs whole passes of its own stream.
                    let pass = w.min_reads / w.clients;
                    let mut stream =
                        Stratified::queries(graph, pass, seed, STREAM_READS + 16 * c as u64);
                    let mut out: Vec<ClientRead> = Vec::new();
                    while t0.elapsed() < deadline
                        || out.is_empty()
                        || !out.len().is_multiple_of(pass)
                    {
                        let q = stream.next_node();
                        let t = Instant::now();
                        let r = client.reverse_topk(q, w.k as u32, false);
                        let lat = ms(t);
                        let answer = r.ok().map(|r| {
                            (r.nodes, r.proximities.iter().map(|p| p.to_bits()).collect())
                        });
                        out.push((lat, q, answer));
                    }
                    out
                })
            })
            .collect();
        let per_client: Vec<Vec<ClientRead>> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (per_client, t0.elapsed())
    });
    m.timed_s = timed.as_secs_f64();
    tier.stop();

    // Client 0's reads, then client 1's: a fixed order to sample from.
    let reads: Vec<ClientRead> = per_client.into_iter().flatten().collect();
    let opts = read_options(false);
    let mut rng = Rng::new(seed, STREAM_ORACLE);
    let all: Vec<usize> = (0..reads.len()).collect();
    let compared = rng.sample(&all, ROUTED_COMPARED);
    let checked: Vec<usize> = compared.iter().copied().take(w.oracle_reads).collect();
    let mut bad = vec![false; reads.len()];
    for (i, (lat, _, answer)) in reads.iter().enumerate() {
        m.reads_ms.push(*lat);
        m.attempted += 1;
        if answer.is_none() {
            m.errors += 1;
            bad[i] = true;
        }
    }
    for &i in &compared {
        let (_, q, Some((nodes, bits))) = &reads[i] else { continue };
        let local = engine.query_with(NodeId(*q), w.k, &opts).expect("in-process read");
        let local_bits: Vec<u64> = local.proximities().iter().map(|p| p.to_bits()).collect();
        m.compared += 1;
        if local.nodes() != nodes.as_slice() || local_bits != *bits {
            m.differed += 1;
            bad[i] = true;
        }
    }
    for &i in &checked {
        let (_, q, Some((nodes, _))) = &reads[i] else { continue };
        let mut answer = nodes.clone();
        answer.sort_unstable();
        let c = oracle::check(&engine, *q, w.k, &answer, w.oracle_per_side, &mut rng);
        m.oracle.checks += c.checks;
        m.oracle.mismatches += c.mismatches;
        bad[i] |= c.mismatches > 0;
    }
    m.failed = bad.iter().filter(|&&b| b).count() as u64;
    m
}
