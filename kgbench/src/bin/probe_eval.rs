//! Probe of the `eval` layer: the blocked tail-scoring kernel
//! (`BatchScorer::score_tails`) against every entity, for the workload's
//! first held-out `(h, r)` pairs. Top-k serving and full-rank evaluation
//! both spend their time here.

use het_kg::embed::init::Init;
use het_kg::embed::{EmbeddingTable, ModelKind};
use het_kg::eval::BatchScorer;
use het_kg::kgraph::io::load_benchmark;
use kgbench::out::{emit_probe, Metric};
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, DIM};
use std::hint::black_box;

const QUERIES: usize = 32;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let n = bench.graph.num_entities();
    let mut entities = EmbeddingTable::zeros(n, DIM);
    Init::Xavier.fill(&mut entities, args.seed);
    let mut relations = EmbeddingTable::zeros(bench.graph.num_relations(), DIM);
    Init::Xavier.fill(&mut relations, args.seed ^ 1);
    let model = ModelKind::TransEL2.build(DIM);
    let mut scorer = BatchScorer::new(model.as_ref());
    let ids: Vec<u32> = (0..n as u32).collect();
    let mut out = vec![0f32; n];
    let queries: Vec<_> = bench.test.iter().take(QUERIES).collect();
    let secs = time_median(&tracer, "eval.score_tails", 5, || {
        for t in &queries {
            scorer.score_tails(
                &entities,
                entities.row(t.head.index()),
                relations.row(t.relation.index()),
                &ids,
                &mut out,
            );
            black_box(&out);
        }
    });
    emit_probe(
        &[Metric::new(
            "eval.score_ns_per_candidate",
            secs * 1e9 / (queries.len() * n) as f64,
            "ns",
        )],
        &tracer,
    );
}
