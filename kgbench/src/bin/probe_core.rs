//! Probe of the `core` layer (the HET-KG hot cache): building a hot set
//! (DPS prefetch of `D` batches plus `filter_hot_set`) and probing the hot
//! table once per parameter access of those batches, on the workload's
//! training triples with the trainer's default cache settings.

use het_kg::embed::negative::{NegConfig, NegativeSampler};
use het_kg::hotcache::filter::{filter_hot_set, FilterConfig};
use het_kg::hotcache::prefetch::Prefetcher;
use het_kg::hotcache::table::HotEmbeddingTable;
use het_kg::kgraph::io::load_benchmark;
use kgbench::out::{emit_probe, Metric};
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, BATCH, DIM};
use std::hint::black_box;

/// The trainer's defaults: prefetch depth `D` and a cache of 2% of all
/// keys.
const PREFETCH_DEPTH: usize = 16;
const CAPACITY_FRACTION: f64 = 0.02;
const BUILDS: usize = 20;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let ks = bench.graph.key_space();
    let n = bench.graph.num_entities();
    let capacity =
        ((ks.num_entities() + ks.num_relations()) as f64 * CAPACITY_FRACTION).round() as usize;
    let filter = FilterConfig::paper_default(capacity);

    let mut prefetcher = Prefetcher::new(BATCH, ks, args.seed);
    let mut negatives = NegativeSampler::new(n, NegConfig::default(), args.seed);
    let build_s = time_median(&tracer, "core.hot_set_build", 5, || {
        for _ in 0..BUILDS {
            let pf = prefetcher.prefetch(&bench.train, &mut negatives, PREFETCH_DEPTH);
            black_box(filter_hot_set(&pf.accesses, ks, &filter));
        }
    });

    let pf = prefetcher.prefetch(&bench.train, &mut negatives, PREFETCH_DEPTH);
    let hot = filter_hot_set(&pf.accesses, ks, &filter);
    let mut table = HotEmbeddingTable::new(ks, capacity, capacity, DIM, DIM, 1);
    let row = vec![0.25f32; DIM];
    for key in hot.keys() {
        table
            .insert(key, &row)
            .expect("capacity covers the hot set");
    }
    let probe_s = time_median(&tracer, "core.table_probe", 5, || {
        for &key in &pf.accesses {
            black_box(table.get(key));
        }
    });
    emit_probe(
        &[
            Metric::new("core.hot_set_build_us", build_s * 1e6 / BUILDS as f64, "us"),
            Metric::new(
                "core.probe_ns_per_key",
                probe_s * 1e9 / pf.accesses.len() as f64,
                "ns",
            ),
        ],
        &tracer,
    );
}
