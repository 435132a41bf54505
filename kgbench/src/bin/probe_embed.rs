//! Probe of the `embed` layer: chunked negative corruption and the
//! TransE-L2 score + logistic-loss gradient kernels, replaying the
//! workload's first training batches.

use het_kg::embed::init::Init;
use het_kg::embed::loss::logistic;
use het_kg::embed::negative::{NegConfig, NegativeSampler};
use het_kg::embed::{EmbeddingTable, ModelKind};
use het_kg::kgraph::io::load_benchmark;
use kgbench::out::{emit_probe, Metric};
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, BATCH, DIM};
use std::hint::black_box;

const BATCHES: usize = 256;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let n = bench.graph.num_entities();
    let batches: Vec<_> = bench.train.chunks(BATCH).take(BATCHES).collect();
    let positives = (batches.len() * BATCH) as f64;

    let mut sampler = NegativeSampler::new(n, NegConfig::default(), args.seed);
    let mut negs = Vec::new();
    let corrupt_s = time_median(&tracer, "embed.corrupt_batch", 5, || {
        for b in &batches {
            negs.clear();
            sampler.corrupt_batch(b, &mut negs);
            black_box(&negs);
        }
    });

    let mut entities = EmbeddingTable::zeros(n, DIM);
    Init::Xavier.fill(&mut entities, args.seed);
    let mut relations = EmbeddingTable::zeros(bench.graph.num_relations(), DIM);
    Init::Xavier.fill(&mut relations, args.seed ^ 1);
    let model = ModelKind::TransEL2.build(DIM);
    let mut sampler = NegativeSampler::new(n, NegConfig::default(), args.seed);
    let work: Vec<Vec<(het_kg::kgraph::Triple, f32)>> = batches
        .iter()
        .map(|b| {
            let mut negs = Vec::new();
            sampler.corrupt_batch(b, &mut negs);
            b.iter()
                .map(|&t| (t, 1.0))
                .chain(negs.iter().map(|n| (n.triple, -1.0)))
                .collect()
        })
        .collect();
    let scored: usize = work.iter().map(Vec::len).sum();
    let (mut gh, mut gr, mut gt) = (vec![0f32; DIM], vec![0f32; DIM], vec![0f32; DIM]);
    let score_grad_s = time_median(&tracer, "embed.score_grad", 5, || {
        for batch in &work {
            for &(t, label) in batch {
                let (h, r, tl) = (
                    entities.row(t.head.index()),
                    relations.row(t.relation.index()),
                    entities.row(t.tail.index()),
                );
                let (_, d) = logistic(model.score(h, r, tl), label);
                model.grad(h, r, tl, d, &mut gh, &mut gr, &mut gt);
            }
        }
        black_box((&gh, &gr, &gt));
    });
    emit_probe(
        &[
            Metric::new(
                "embed.corrupt_ns_per_triple",
                corrupt_s * 1e9 / positives,
                "ns",
            ),
            Metric::new(
                "embed.score_grad_ns_per_triple",
                score_grad_s * 1e9 / scored as f64,
                "ns",
            ),
        ],
        &tracer,
    );
}
