//! Probe of the `partition` layer: the min-cut partitioner the trainer
//! runs at the start of every `train_with_store` call, on the workload's
//! graph and seed, and the edge cut it leaves.

use het_kg::kgraph::io::load_benchmark;
use het_kg::partition::quality::edge_cut;
use het_kg::partition::{MetisLike, Partitioner};
use kgbench::out::{emit_probe, Metric};
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, MACHINES};
use std::hint::black_box;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let metis_s = time_median(&tracer, "partition.metis_like", 3, || {
        black_box(MetisLike::new(args.seed).partition(&bench.graph, MACHINES));
    });
    let p = MetisLike::new(args.seed).partition(&bench.graph, MACHINES);
    emit_probe(
        &[
            Metric::new("partition.metis_s", metis_s, "s"),
            Metric::new(
                "partition.edge_cut",
                edge_cut(&bench.graph, &p) as f64,
                "count",
            ),
        ],
        &tracer,
    );
}
