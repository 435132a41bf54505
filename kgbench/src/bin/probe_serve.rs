//! Probe of the `serve` layer: single-thread entity lookups through
//! `ServeEngine` (snapshot load, hot-row cache, row copy) under the
//! workload's Zipf(1.0) key law, after one warm-up pass.

use het_kg::embed::checkpoint::Checkpoint;
use het_kg::embed::init::Init;
use het_kg::embed::{EmbeddingTable, ModelKind};
use het_kg::kgraph::io::load_benchmark;
use het_kg::serve::{ServeEngine, ServingSnapshot, SnapshotCell};
use kgbench::out::{emit_probe, Metric};
use kgbench::rng::Rng;
use kgbench::trace::Tracer;
use kgbench::zipf::Zipf;
use kgbench::{time_median, ProbeArgs, DIM, STREAM_LOOKUPS};
use std::hint::black_box;
use std::sync::Arc;

const LOOKUPS: usize = 1 << 18;
const SHARDS: usize = 4;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let n = bench.graph.num_entities();
    let mut entities = EmbeddingTable::zeros(n, DIM);
    Init::Xavier.fill(&mut entities, args.seed);
    let mut relations = EmbeddingTable::zeros(bench.graph.num_relations(), DIM);
    Init::Xavier.fill(&mut relations, args.seed ^ 1);
    let snapshot =
        ServingSnapshot::from_checkpoint(&Checkpoint::new(entities, relations), 1, 0, SHARDS);
    let engine = ServeEngine::new(
        Arc::new(SnapshotCell::new(snapshot)),
        ModelKind::TransEL2.build(DIM),
        n / 4,
    )
    .expect("engine over a matching snapshot");

    let zipf = Zipf::new(n, 1.0);
    let mut rng = Rng::new(args.seed, STREAM_LOOKUPS);
    let mut id_of_rank: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut id_of_rank);
    let keys: Vec<u32> = (0..LOOKUPS)
        .map(|_| id_of_rank[zipf.sample(&mut rng)])
        .collect();
    let mut row = Vec::with_capacity(DIM);
    let secs = time_median(&tracer, "serve.lookup_entity", 5, || {
        for &id in &keys {
            engine.lookup_entity(id, &mut row).expect("id in range");
            black_box(&row);
        }
    });
    emit_probe(
        &[Metric::new(
            "serve.lookup_ns",
            secs * 1e9 / LOOKUPS as f64,
            "ns",
        )],
        &tracer,
    );
}
