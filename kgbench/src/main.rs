//! End-to-end runner.
//!
//! `kgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --hetkg-bin <path>` makes the workload's inputs from the seed, trains on
//! them with repeated `train_with_store` calls, saves the model through
//! `CheckpointStore`, serves it through `ServingSnapshot`/`ServeEngine`
//! and prints one JSON result line last. With `--trace 0` the result holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer metrics,
//! from spans around the calls below and from the per-layer probe
//! binaries, and the spans are written to `.bench_out/`.
//!
//! Every wall-clock rate is the work of all identical slices of the run
//! over their summed time. On a shared host the same work runs up to 30%
//! slower in one process than in another; training calls alternate with
//! serving rounds so that each rate samples the whole run, and over runs
//! of the same code this total rate spread about half as much as the
//! fastest slice did (README.md).

use het_kg::embed::checkpoint::Checkpoint;
use het_kg::embed::init::Init;
use het_kg::embed::manifest::CheckpointStore;
use het_kg::embed::ModelKind;
use het_kg::eval::link_prediction::{evaluate, EmbeddingSnapshot, EvalConfig};
use het_kg::kgraph::io::{load_benchmark, Benchmark};
use het_kg::kgraph::Triple;
use het_kg::ps::{KvStore, ShardRouter};
use het_kg::serve::{ServeEngine, ServingSnapshot, SnapshotCell};
use het_kg::train_sys::{trainer, SystemKind, TrainConfig, TrainReport};
use kgbench::out::{self, Metric};
use kgbench::rng::Rng;
use kgbench::score::{self, Truth, Weights};
use kgbench::stats::{median, nearest_rank, rate};
use kgbench::trace::Tracer;
use kgbench::zipf::Zipf;
use kgbench::{inputs, parse_flags, BATCH, DIM, MACHINES, STREAM_LOOKUPS};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Input set-ups per run; `setup_s` is their median plus the run's median
/// checkpoint save and snapshot load.
const SETUP_REPS: usize = 3;
/// Share of the measured time spent in training calls; serving rounds
/// fill the rest.
const TRAIN_SHARE: f64 = 0.6;
/// Fewest timed training calls and serving rounds, however short the run.
const MIN_TRAIN_CALLS: usize = 3;
const MIN_SERVE_ROUNDS: usize = 6;
/// Epochs per `train_with_store` call: two, so the loss can be seen to
/// fall within one call.
const EPOCHS: usize = 2;
/// Serving layout: the CLI defaults (4 shards, hot-row cache of a quarter
/// of the entities).
const SERVE_SHARDS: usize = 4;
const LOOKUP_THREADS: usize = 2;
/// Lookups per thread per slice, timed in batches of `LOOKUP_BATCH` calls.
const LOOKUPS_PER_THREAD: usize = 1 << 20;
const LOOKUP_BATCH: usize = 1024;
const LOOKUP_ZIPF: f64 = 1.0;
const TOPK: usize = 10;
/// Top-k queries per slice: 1,000, so each slice's p99 has ten samples
/// beyond it.
const TOPK_PER_SLICE: usize = 1000;
const EVAL_PER_SLICE: usize = 96;
/// Output checks made outside the timed regions.
const CHECKED_LOOKUPS: usize = 256;
const CHECKED_TOPK_PER_ROUND: usize = 2;

const STREAM_TOPK: u64 = 3;
const STREAM_CHECKS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// HET-KG-D on the simulated transport: the hot cache, the sim PS path
    /// and the kernels do the work.
    HetkgSim,
    /// DGL-KE on the simulated transport: no worker cache, so every row
    /// of every batch goes through the PS path.
    DglkeSim,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "hetkg-wn18" => Ok(Self::HetkgSim),
            "dglke-wn18" => Ok(Self::DglkeSim),
            other => Err(format!(
                "unknown workload {other:?} (hetkg-wn18 | dglke-wn18)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::HetkgSim => "hetkg-wn18",
            Self::DglkeSim => "dglke-wn18",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    hetkg_bin: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let flags = parse_flags(std::env::args().skip(1))?;
        let get = |n: &str| flags.get(n).ok_or_else(|| format!("missing --{n}"));
        let seconds: u64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(1..=600).contains(&seconds) {
            return Err("--seconds must be 1..=600".into());
        }
        Ok(Self {
            workload: Workload::parse(get("workload")?)?,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: seconds as f64,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            hetkg_bin: std::fs::canonicalize(get("hetkg-bin")?)
                .map_err(|e| format!("--hetkg-bin: {e}"))?,
        })
    }
}

/// Operation accounting and check results of one run.
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.problems.push(msg);
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("kgbench: {e}");
        std::process::exit(2)
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("kgbench: {e}");
            std::process::exit(1)
        }
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn triple_ids(t: &Triple) -> [u32; 3] {
    [t.head.0, t.relation.0, t.tail.0]
}

/// The machine's `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else. Printed with the
/// run to tell a slow host from a slow program; zeros where unreadable.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What a training call must repeat bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint(
    Vec<(
        u64,
        het_kg::netsim::TrafficSnapshot,
        u64,
        u64,
        usize,
        u64,
        u64,
    )>,
);

fn fingerprint(r: &TrainReport) -> Fingerprint {
    Fingerprint(
        r.epochs
            .iter()
            .map(|e| {
                (
                    e.loss.to_bits(),
                    e.traffic,
                    e.cache.hits,
                    e.cache.misses,
                    e.max_staleness,
                    e.compute_secs.to_bits(),
                    e.comm_secs.to_bits(),
                )
            })
            .collect(),
    )
}

struct Setup {
    bench: Benchmark,
    data_dir: PathBuf,
    total_s: Vec<f64>,
    load_s: Vec<f64>,
}

fn setup_inputs(
    args: &Args,
    dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Setup, String> {
    let data_dir = dir.join("data");
    let (mut total_s, mut load_s, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let g = tracer.span("inputs.generate", 0, |_| inputs::generate(args.seed));
        let digest = tracer
            .span("inputs.write_tsv", 0, |_| inputs::write_trio(&data_dir, &g))
            .map_err(|e| format!("writing inputs: {e}"))?;
        let tl = Instant::now();
        let b = tracer
            .span("kgraph.load_benchmark", 0, |_| load_benchmark(&data_dir))
            .map_err(|e| format!("loading inputs: {e}"))?;
        load_s.push(secs_since(tl));
        total_s.push(secs_since(t));
        digests.push(digest);
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS > 0");
    println!(
        "inputs: seed {} | digest {:016x} | {} entities, {} relations | {} train / {} valid / {} test triples",
        args.seed,
        digests[0],
        bench.graph.num_entities(),
        bench.graph.num_relations(),
        bench.train.len(),
        bench.valid.len(),
        bench.test.len()
    );
    tally.check(digests.iter().all(|&d| d == digests[0]), || {
        "input digest changed between set-ups of one seed".into()
    });
    tally.check(
        bench.graph.num_entities() == inputs::ENTITIES
            && bench.graph.num_relations() == inputs::RELATIONS
            && bench.train.len() == inputs::TRAIN
            && bench.valid.len() == inputs::HELD_OUT
            && bench.test.len() == inputs::HELD_OUT,
        || "loaded set does not have the generated shape".into(),
    );
    Ok(Setup {
        bench,
        data_dir,
        total_s,
        load_s,
    })
}

fn train_config(args: &Args) -> TrainConfig {
    let system = match args.workload {
        Workload::HetkgSim => SystemKind::HetKgDps,
        Workload::DglkeSim => SystemKind::DglKe,
    };
    let mut cfg = TrainConfig::small(system);
    cfg.dim = DIM;
    cfg.batch_size = BATCH;
    cfg.machines = MACHINES;
    cfg.epochs = EPOCHS;
    cfg.seed = args.seed;
    cfg.eval_candidates = None;
    cfg
}

/// Repeated `train_with_store` calls, which must agree bit for bit.
struct Training<'a> {
    cfg: TrainConfig,
    bench: &'a Benchmark,
    attempts: usize,
    call_s: Vec<f64>,
    first: Option<(TrainReport, Fingerprint)>,
}

impl<'a> Training<'a> {
    fn new(args: &Args, bench: &'a Benchmark) -> Self {
        Self {
            cfg: train_config(args),
            bench,
            attempts: 0,
            call_s: Vec::new(),
            first: None,
        }
    }

    /// One timed call; returns the trained store if it succeeded.
    fn call(&mut self, tracer: &Tracer, tally: &mut Tally) -> Option<Arc<KvStore>> {
        self.attempts += 1;
        tally.attempted += 1;
        let (bench, cfg) = (self.bench, &self.cfg);
        let t = Instant::now();
        let out = tracer.span("train.train_with_store", 0, |_| {
            catch_unwind(AssertUnwindSafe(|| {
                trainer::train_with_store(&bench.graph, &bench.train, &[], cfg)
            }))
        });
        let secs = secs_since(t);
        let Ok((report, store)) = out else {
            tally.failed += 1;
            return None;
        };
        self.call_s.push(secs);
        let fp = fingerprint(&report);
        match &self.first {
            Some((_, f)) => tally.check(*f == fp, || {
                "repeated train_with_store calls differ in loss or traffic".into()
            }),
            None => {
                self.check_first(&report, tally);
                self.first = Some((report, fp));
            }
        }
        Some(store)
    }

    fn check_first(&self, report: &TrainReport, tally: &mut Tally) {
        let losses: Vec<f64> = report.epochs.iter().map(|e| e.loss).collect();
        tally.check(losses.len() == EPOCHS, || {
            format!("{} epochs reported", losses.len())
        });
        tally.check(losses.windows(2).all(|w| w[1] < w[0]), || {
            format!("training loss did not fall: {losses:?}")
        });
        if self.cfg.system == SystemKind::HetKgDps {
            let p = self.cfg.cache.staleness;
            tally.check(report.max_staleness() <= p, || {
                format!(
                    "HET-KG staleness {} exceeds P = {p}",
                    report.max_staleness()
                )
            });
        }
        println!(
            "train: {} x {} epochs | loss {:?} | {:.1} MB remote/epoch | cache hit ratio {:.3}",
            report.system,
            EPOCHS,
            losses,
            report.total_traffic().remote_bytes as f64 / EPOCHS as f64 / 1e6,
            report.total_cache().hit_ratio()
        );
    }

    fn report(&self) -> &TrainReport {
        &self.first.as_ref().expect("a call succeeded").0
    }
}

/// Timings of the serving rounds.
#[derive(Default)]
struct Served {
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    publish_s: Vec<f64>,
    lookup_slice_s: Vec<f64>,
    topk_slice_s: Vec<f64>,
    /// Per top-k slice, each successful query's latency.
    topk_lat_us: Vec<Vec<f64>>,
    eval_slice_s: Vec<f64>,
}

/// Save `ck` as the newest checkpoint, load the newest valid one back as a
/// serving snapshot, and time both.
fn save_and_load(
    store: &mut CheckpointStore,
    ck: &Checkpoint,
    served: &mut Served,
    tracer: &Tracer,
) -> Result<ServingSnapshot, String> {
    let t = Instant::now();
    tracer
        .span("embed.checkpoint_save", 0, |_| {
            store.save(ck, EPOCHS as u64)
        })
        .map_err(|e| format!("saving checkpoint: {e}"))?;
    served.save_s.push(secs_since(t));
    let t = Instant::now();
    let snap = tracer
        .span("serve.snapshot_load_latest", 0, |_| {
            ServingSnapshot::load_latest(store.dir(), SERVE_SHARDS)
        })
        .map_err(|e| format!("loading snapshot: {e}"))?;
    served.load_s.push(secs_since(t));
    Ok(snap)
}

/// The trained model behind a `ServeEngine`, and the load that reads it.
struct Serving<'a> {
    bench: &'a Benchmark,
    /// The weights as they stood before the first save: lookups must
    /// return them bit for bit.
    ck: Checkpoint,
    ckstore: CheckpointStore,
    cell: Arc<SnapshotCell>,
    engine: ServeEngine,
    seq: u64,
    lookup_keys: Vec<Vec<u32>>,
    queries: Vec<(u32, u32)>,
    checks: Rng,
    eval_snapshot: EmbeddingSnapshot,
    topk_pos: usize,
    eval_pos: usize,
    rounds: usize,
    served: Served,
}

impl<'a> Serving<'a> {
    fn new(
        args: &Args,
        bench: &'a Benchmark,
        store: &KvStore,
        dir: &Path,
        tracer: &Tracer,
    ) -> Result<Self, String> {
        let n = bench.graph.num_entities();
        let ck = trainer::checkpoint(store, bench.graph.key_space());
        let mut served = Served::default();
        let mut ckstore = CheckpointStore::open(dir.join("checkpoints"), 2)
            .map_err(|e| format!("checkpoint dir: {e}"))?;
        let snap = save_and_load(&mut ckstore, &ck, &mut served, tracer)?;
        let seq = snap.seq;
        let cell = Arc::new(SnapshotCell::new(snap));
        let engine = ServeEngine::new(cell.clone(), ModelKind::TransEL2.build(DIM), n / 4)
            .map_err(|e| format!("serve engine: {e}"))?;

        // Zipf(1.0) entity ids with hotness scattered by a seeded
        // permutation; top-k heads follow the same law, relations are
        // uniform.
        let zipf = Zipf::new(n, LOOKUP_ZIPF);
        let mut rng = Rng::new(args.seed, STREAM_LOOKUPS);
        let mut id_of_rank: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut id_of_rank);
        let lookup_keys = (0..LOOKUP_THREADS)
            .map(|_| {
                (0..LOOKUPS_PER_THREAD)
                    .map(|_| id_of_rank[zipf.sample(&mut rng)])
                    .collect()
            })
            .collect();
        let mut qrng = Rng::new(args.seed, STREAM_TOPK);
        let nrel = bench.graph.num_relations();
        let queries = (0..TOPK_PER_SLICE * 16)
            .map(|_| (id_of_rank[zipf.sample(&mut qrng)], qrng.below(nrel) as u32))
            .collect();
        let eval_snapshot = EmbeddingSnapshot::new(ck.entities.clone(), ck.relations.clone());
        Ok(Self {
            bench,
            ck,
            ckstore,
            cell,
            engine,
            seq,
            lookup_keys,
            queries,
            checks: Rng::new(args.seed, STREAM_CHECKS),
            eval_snapshot,
            topk_pos: 0,
            eval_pos: 0,
            rounds: 0,
            served,
        })
    }

    /// One round: a lookup slice, a top-k slice, an evaluation slice, then
    /// a publish of a newer checkpoint of the same weights, so writes
    /// happen beside the reads.
    fn round(&mut self, args: &Args, tracer: &Tracer, tally: &mut Tally) -> Result<(), String> {
        self.rounds += 1;
        let n = self.bench.graph.num_entities();
        let weights = Weights {
            entities: self.ck.entities.as_slice(),
            relations: self.ck.relations.as_slice(),
            dim: DIM,
        };

        // Lookups on closed-loop client threads.
        let barrier = Barrier::new(LOOKUP_THREADS + 1);
        let engine = &self.engine;
        let (wall, per_thread) = tracer.span("serve.lookup_slice", 0, |slice| {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .lookup_keys
                    .iter()
                    .map(|keys| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let mut row = Vec::with_capacity(DIM);
                            let mut failed = 0u64;
                            barrier.wait();
                            for batch in keys.chunks(LOOKUP_BATCH) {
                                tracer.span("serve.lookup_entity_batch", slice, |_| {
                                    for &id in batch {
                                        if engine.lookup_entity(id, &mut row).is_err() {
                                            failed += 1;
                                        }
                                        black_box(&row);
                                    }
                                });
                            }
                            failed
                        })
                    })
                    .collect();
                barrier.wait();
                let t = Instant::now();
                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                (secs_since(t), joined)
            })
        });
        for r in per_thread {
            tally.attempted += LOOKUPS_PER_THREAD as u64;
            tally.failed += r.unwrap_or(LOOKUPS_PER_THREAD as u64);
        }
        self.served.lookup_slice_s.push(wall);
        let mut row = Vec::new();
        for _ in 0..CHECKED_LOOKUPS {
            let id = self.checks.below(n) as u32;
            let ok = engine.lookup_entity(id, &mut row).is_ok()
                && row.iter().map(|v| v.to_bits()).eq(self
                    .ck
                    .entities
                    .row(id as usize)
                    .iter()
                    .map(|v| v.to_bits()));
            tally.check(ok, || {
                format!("lookup of entity {id} differs from the saved weights")
            });
        }

        // Top-k queries on one closed-loop thread.
        let checked: Vec<usize> = (0..CHECKED_TOPK_PER_ROUND)
            .map(|_| self.checks.below(TOPK_PER_SLICE))
            .collect();
        let mut answers = Vec::new();
        let mut scratch = engine.scratch();
        let mut lat_us = Vec::with_capacity(TOPK_PER_SLICE);
        let t = Instant::now();
        tracer.span("serve.topk_slice", 0, |slice| {
            for i in 0..TOPK_PER_SLICE {
                let (h, r) = self.queries[(self.topk_pos + i) % self.queries.len()];
                tally.attempted += 1;
                let q = Instant::now();
                let res = tracer.span("serve.topk_tails", slice, |_| {
                    catch_unwind(AssertUnwindSafe(|| {
                        engine.topk_tails(&mut scratch, h, r, TOPK)
                    }))
                });
                let us = q.elapsed().as_secs_f64() * 1e6;
                match res {
                    Ok(Ok(ans)) => {
                        lat_us.push(us);
                        if checked.contains(&i) {
                            answers.push((h, r, ans));
                        }
                    }
                    _ => tally.failed += 1,
                }
            }
        });
        self.served.topk_slice_s.push(secs_since(t));
        self.served.topk_lat_us.push(lat_us);
        self.topk_pos += TOPK_PER_SLICE;
        for (h, r, ans) in &answers {
            let res = score::check_topk(&weights, *h, *r, TOPK, ans);
            tally.check(res.is_ok(), || res.unwrap_err());
        }

        // Filtered full-rank evaluation of the next held-out triples.
        let test = &self.bench.test;
        let chunk: Vec<Triple> = (0..EVAL_PER_SLICE)
            .map(|i| test[(self.eval_pos + i) % test.len()])
            .collect();
        self.eval_pos += EVAL_PER_SLICE;
        tally.attempted += chunk.len() as u64;
        let model = engine.model();
        let eval_cfg = EvalConfig {
            filtered: true,
            max_candidates: None,
            seed: 0,
        };
        let t = Instant::now();
        let metrics = tracer.span("eval.evaluate", 0, |_| {
            catch_unwind(AssertUnwindSafe(|| {
                evaluate(
                    model,
                    &self.eval_snapshot,
                    &chunk,
                    self.bench.graph.triples(),
                    &eval_cfg,
                )
            }))
        });
        let secs = secs_since(t);
        match metrics {
            Ok(m) => {
                self.served.eval_slice_s.push(secs);
                tally.check(m.count() == 2 * chunk.len() as u64, || {
                    format!("evaluate ranked {} of {} sides", m.count(), 2 * chunk.len())
                });
                if self.rounds == 1 {
                    check_ranks(args, self.bench, &weights, &chunk, m.mr(), m.mrr(), tally);
                }
            }
            Err(_) => tally.failed += chunk.len() as u64,
        }

        // Publish a newer checkpoint of the same weights.
        let snap = save_and_load(&mut self.ckstore, &self.ck, &mut self.served, tracer)?;
        let seq = self.seq;
        tally.check(snap.seq > seq, || {
            format!("snapshot seq {} not newer than {seq}", snap.seq)
        });
        self.seq = snap.seq;
        let t = Instant::now();
        tracer.span("serve.publish", 0, |_| self.cell.publish(snap));
        self.served.publish_s.push(secs_since(t));
        Ok(())
    }
}

/// Compare `evaluate`'s filtered MR and MRR on `chunk` with the harness's
/// f64 recomputation, and check that training beat the initial weights.
fn check_ranks(
    args: &Args,
    bench: &Benchmark,
    trained: &Weights,
    chunk: &[Triple],
    mr: f64,
    mrr: f64,
    tally: &mut Tally,
) {
    let truth = Truth::new(bench.graph.triples().iter().map(triple_ids));
    let ks = bench.graph.key_space();
    let init = KvStore::new(
        ShardRouter::round_robin(ks, 1),
        DIM,
        DIM,
        1,
        Init::Xavier,
        args.seed,
    );
    let init = trainer::snapshot(&init, ks);
    let initial = Weights {
        entities: init.entities.as_slice(),
        relations: init.relations.as_slice(),
        dim: DIM,
    };
    let (mut lo, mut hi, mut rlo, mut rhi, mut exact, mut exact_init) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let sides = 2.0 * chunk.len() as f64;
    for t in chunk {
        for tail_side in [false, true] {
            let b = score::rank_bounds(trained, &truth, triple_ids(t), tail_side);
            lo += b.lo as f64 / sides;
            hi += b.hi as f64 / sides;
            rlo += 1.0 / b.hi as f64 / sides;
            rhi += 1.0 / b.lo as f64 / sides;
            exact += b.exact / sides;
            exact_init +=
                score::rank_bounds(&initial, &truth, triple_ids(t), tail_side).exact / sides;
        }
    }
    let slack = 1e-9;
    tally.check(mr >= lo - slack && mr <= hi + slack, || {
        format!("evaluate MR {mr} outside the f64 range [{lo}, {hi}]")
    });
    tally.check(mrr >= rlo - slack && mrr <= rhi + slack, || {
        format!("evaluate MRR {mrr} outside the f64 range [{rlo}, {rhi}]")
    });
    tally.check(exact < exact_init, || {
        format!("trained MR {exact} does not beat the initial weights' {exact_init}")
    });
    println!(
        "eval check: {} test triples | MR {mr:.2} (f64 {exact:.2}, initial weights {exact_init:.2}) | MRR {mrr:.4}",
        chunk.len()
    );
}

fn run(args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let ticks_at_start = cpu_ticks();
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());

    let setup = setup_inputs(args, &dir, &tracer, &mut tally)?;
    let bench = &setup.bench;

    // Training calls alternate with serving rounds, so both sample the
    // host's speed across the whole run rather than in one stretch of it.
    let mut training = Training::new(args, bench);
    let mut serving: Option<Serving> = None;
    let measured = Instant::now();
    loop {
        let t = Instant::now();
        let store = training.call(&tracer, &mut tally);
        let block = secs_since(t) * (1.0 - TRAIN_SHARE) / TRAIN_SHARE;
        if let (None, Some(store)) = (&serving, store) {
            serving = Some(Serving::new(args, bench, &store, &dir, &tracer)?);
        }
        let Some(serving) = serving.as_mut() else {
            if training.attempts >= MIN_TRAIN_CALLS {
                return Err("every train_with_store call failed".into());
            }
            continue;
        };
        let t = Instant::now();
        while secs_since(t) < block {
            serving.round(args, &tracer, &mut tally)?;
        }
        if secs_since(measured) >= args.seconds
            && training.call_s.len() >= MIN_TRAIN_CALLS
            && serving.rounds >= MIN_SERVE_ROUNDS
        {
            break;
        }
    }
    let serving = serving.expect("the loop ends only after serving");
    let cache_hit_ratio = serving.engine.cache().stats().hit_ratio();
    let served = serving.served;

    let report = training.report();
    let epochs = EPOCHS as f64;
    let traffic = report.total_traffic();
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    // p50 over every query of the run; p99 as the lowest of the slices'
    // p99s (each over 1,000 queries). CPU time the hypervisor steals stalls
    // runs of consecutive queries and moved the p99 over all queries, and
    // the median slice's p99, by more than the metric's bound between
    // runs; the quietest slice's tail still moves with the code.
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(&served.topk_lat_us.concat());
    let slice_p99: Vec<f64> = served
        .topk_lat_us
        .iter()
        .filter_map(|l| nearest_rank(&sorted(l), 99.0))
        .collect();
    println!(
        "serve: {} rounds | {} top-k latency samples, p99 over all of them {:.1} us | hot-row cache hit ratio {cache_hit_ratio:.3}",
        served.lookup_slice_s.len(),
        all.len(),
        nearest_rank(&all, 99.0).unwrap_or(f64::NAN),
    );
    let p99s: Vec<String> = slice_p99.iter().map(|p| format!("{p:.0}")).collect();
    println!("top-k p99 us per slice: {}", p99s.join(" "));
    for (name, slices) in [
        ("train call", &training.call_s),
        ("lookup", &served.lookup_slice_s),
        ("top-k", &served.topk_slice_s),
        ("eval", &served.eval_slice_s),
    ] {
        let ms: Vec<String> = slices.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
        println!("slices ms, {name}: {}", ms.join(" "));
    }
    let setup_s = med(&setup.total_s) + med(&served.save_s) + med(&served.load_s);

    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "train_triples_per_s",
            rate(bench.train.len() as f64 * epochs, &training.call_s),
            "1/s",
        ),
        Metric::new("sim_epoch_s", report.total_secs() / epochs, "sim_s"),
        Metric::new(
            "remote_bytes_per_epoch",
            traffic.remote_bytes as f64 / epochs,
            "B",
        ),
        Metric::new("final_loss", report.final_loss(), "loss"),
        Metric::new(
            "eval_triples_per_s",
            rate(EVAL_PER_SLICE as f64, &served.eval_slice_s),
            "1/s",
        ),
        Metric::new(
            "lookup_qps",
            rate(
                (LOOKUP_THREADS * LOOKUPS_PER_THREAD) as f64,
                &served.lookup_slice_s,
            ),
            "1/s",
        ),
        Metric::new(
            "topk_qps",
            rate(TOPK_PER_SLICE as f64, &served.topk_slice_s),
            "1/s",
        ),
        Metric::new(
            "topk_p50_us",
            nearest_rank(&all, 50.0).unwrap_or(f64::NAN),
            "us",
        ),
        Metric::new(
            "topk_p99_us",
            slice_p99.iter().copied().fold(f64::NAN, f64::min),
            "us",
        ),
        Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"),
    ];
    let metrics = if args.trace {
        // The traced run's end-to-end figures, beside an untraced run's,
        // give the tracing overhead.
        let line: Vec<String> = end_to_end
            .iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!("traced end-to-end: {}", line.join(" "));
        layer_metrics(args, &setup, &training, &served, cache_hit_ratio, &tracer)
    } else {
        end_to_end
    };
    let ticks = cpu_ticks();
    let steal = ticks.0.saturating_sub(ticks_at_start.0);
    let total = ticks.1.saturating_sub(ticks_at_start.1);
    println!(
        "run wall {:.1}s | host steal {:.1}% of CPU time",
        secs_since(start),
        100.0 * steal as f64 / total.max(1) as f64
    );
    if args.trace {
        std::fs::create_dir_all(".bench_out").map_err(|e| format!("creating .bench_out: {e}"))?;
        let path = format!(
            ".bench_out/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }
    // A failed operation is reported in `failed`; `correct` speaks of the
    // checks on the outputs of the operations that succeeded.
    if tally.failed > 0 {
        eprintln!(
            "kgbench: {} of {} operations failed",
            tally.failed, tally.attempted
        );
    }
    Ok(out::result_line(
        tally.problems.is_empty(),
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

/// The per-layer probe binaries, each a target of its own.
const PROBES: [&str; 7] = [
    "probe_partition",
    "probe_embed",
    "probe_netsim",
    "probe_ps",
    "probe_core",
    "probe_eval",
    "probe_serve",
];

fn layer_metrics(
    args: &Args,
    setup: &Setup,
    training: &Training,
    served: &Served,
    cache_hit_ratio: f64,
    tracer: &Tracer,
) -> Vec<Metric> {
    let report = training.report();
    let epochs = EPOCHS as f64;
    let traffic = report.total_traffic();
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let row_bytes = 8.0 + 4.0 * DIM as f64;
    let frame_keys = if traffic.remote_messages > 0 {
        (traffic.remote_bytes as f64 / traffic.remote_messages as f64 / row_bytes)
            .round()
            .max(1.0)
    } else {
        1.0
    };
    let mut m = vec![
        Metric::new("kgraph.load_s", med(&setup.load_s), "s"),
        Metric::new("embed.checkpoint_save_s", med(&served.save_s), "s"),
        Metric::new(
            "netsim.remote_messages_per_epoch",
            traffic.remote_messages as f64 / epochs,
            "count",
        ),
        Metric::new(
            "netsim.local_bytes_per_epoch",
            traffic.local_bytes as f64 / epochs,
            "B",
        ),
        Metric::new(
            "netsim.push_bytes_per_epoch",
            traffic.push_wire_bytes as f64 / epochs,
            "B",
        ),
        Metric::new("core.hit_ratio", report.total_cache().hit_ratio(), "ratio"),
        Metric::new(
            "core.max_staleness",
            report.max_staleness() as f64,
            "iterations",
        ),
        Metric::new(
            "train.compute_sim_s_per_epoch",
            report.total_compute_secs() / epochs,
            "sim_s",
        ),
        Metric::new(
            "train.comm_sim_s_per_epoch",
            report.total_comm_secs() / epochs,
            "sim_s",
        ),
        Metric::new(
            "train.overlap_sim_s_per_epoch",
            report.total_overlap_secs() / epochs,
            "sim_s",
        ),
        Metric::new("serve.snapshot_load_s", med(&served.load_s), "s"),
        Metric::new("serve.publish_us", med(&served.publish_s) * 1e6, "us"),
        Metric::new("serve.cache_hit_ratio", cache_hit_ratio, "ratio"),
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    for probe in PROBES {
        let start = tracer.now_ns();
        let out = std::process::Command::new(exe_dir.join(probe))
            .arg("--data")
            .arg(&setup.data_dir)
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--frame-keys")
            .arg((frame_keys as u64).to_string())
            .arg("--hetkg-bin")
            .arg(&args.hetkg_bin)
            .stderr(std::process::Stdio::inherit())
            .output();
        let end = tracer.now_ns();
        match out {
            Ok(o) if o.status.success() => {
                let parsed = out::parse_probe(&String::from_utf8_lossy(&o.stdout));
                let id = tracer.record(&format!("probe.{probe}"), 0, start, end);
                for (name, s, e) in parsed.spans {
                    tracer.record(&name, id, start + s, start + e);
                }
                m.extend(parsed.metrics);
            }
            Ok(o) => eprintln!(
                "kgbench: {probe} exited with {}; its metrics are missing",
                o.status
            ),
            Err(e) => eprintln!("kgbench: cannot run {probe}: {e}; its metrics are missing"),
        }
    }
    print_shares(args, &m, training, frame_keys);
    m
}

/// Each probed layer's share of one `train_with_store` call: the probe's
/// per-operation time times the operations one call makes, over the
/// mean call's wall time. Both worker threads run at once, so shares
/// can sum past 1.
fn print_shares(args: &Args, m: &[Metric], training: &Training, frame_keys: f64) {
    let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
    let call = training.call_s.iter().sum::<f64>() / training.call_s.len() as f64;
    let triples = inputs::TRAIN as f64 * EPOCHS as f64;
    let negatives = 8.0;
    let batches = triples / BATCH as f64;
    let remote_frames = training.report().total_traffic().remote_messages as f64;
    let mut shares: Vec<(&str, Option<f64>)> = vec![
        ("partition.metis", get("partition.metis_s")),
        (
            "embed.corrupt",
            get("embed.corrupt_ns_per_triple").map(|v| v * 1e-9 * triples),
        ),
        (
            "embed.score_grad",
            get("embed.score_grad_ns_per_triple").map(|v| v * 1e-9 * triples * (1.0 + negatives)),
        ),
        (
            "netsim.seal_verify",
            get("netsim.seal_verify_us_per_frame").map(|v| v * 1e-6 * remote_frames),
        ),
    ];
    shares.push((
        "ps.client_pull+push (every key of every batch)",
        get("ps.client_pull_us_per_batch")
            .zip(get("ps.client_push_us_per_batch"))
            .map(|(a, b)| (a + b) * 1e-6 * batches),
    ));
    match args.workload {
        Workload::HetkgSim => {
            shares.push((
                "core.hot_set_build",
                get("core.hot_set_build_us").map(|v| v * 1e-6 * batches / 16.0),
            ));
            shares.push((
                "core.probe",
                get("core.probe_ns_per_key")
                    .map(|v| v * 1e-9 * batches * BATCH as f64 * (1.0 + negatives) * 3.0),
            ));
        }
        Workload::DglkeSim => {
            // What the same batches would cost over Unix sockets instead.
            shares.push((
                "ps.uds_pull+push (same batches over sockets)",
                get("ps.uds_pull_us_per_batch")
                    .zip(get("ps.uds_push_us_per_batch"))
                    .map(|(a, b)| (a + b) * 1e-6 * batches),
            ));
        }
    }
    println!("layer shares of one train_with_store call ({call:.3}s, mean remote frame {frame_keys} keys):");
    for (name, secs) in shares {
        if let Some(s) = secs {
            println!("  share {name}: {:.3} ({s:.3}s)", s / call);
        }
    }
}
