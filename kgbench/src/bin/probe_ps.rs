//! Probe of the `ps` layer, replaying the workload's first batches: the
//! shard store's batched pull and AdaGrad push (`KvStore`), the client on
//! the simulated transport with checksums on, and the client over Unix
//! sockets to two harness-spawned `hetkg ps-server` processes.
//!
//! A batch's keys are its positives' heads, relations and tails plus 16
//! negative entities (two chunks of 8 shared corruptions, the chunked
//! sampler's shape), drawn by the harness. Entities go to shards
//! round-robin, which keeps this probe independent of the partitioner.

use het_kg::embed::init::Init;
use het_kg::kgraph::io::load_benchmark;
use het_kg::kgraph::{EntityId, ParamKey};
use het_kg::netsim::{ClusterTopology, TrafficMeter};
use het_kg::ps::optimizer::OptimizerKind;
use het_kg::ps::{
    KvStore, ProcessCluster, PsClient, PsScratch, ShardRouter, ShardServerConfig, SocketMode,
};
use kgbench::out::{emit_probe, Metric};
use kgbench::rng::Rng;
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, BATCH, DIM, MACHINES};
use std::hint::black_box;
use std::sync::Arc;

const BATCHES: usize = 128;
const NEGATIVE_ENTITIES: usize = 16;
const OPTIMIZER: OptimizerKind = OptimizerKind::AdaGrad { lr: 0.1 };

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let bench = load_benchmark(&args.data).expect("probe inputs load");
    let ks = bench.graph.key_space();
    let n = bench.graph.num_entities();
    let mut rng = Rng::new(args.seed, 5);
    let batches: Vec<Vec<ParamKey>> = bench
        .train
        .chunks(BATCH)
        .take(BATCHES)
        .map(|b| {
            let mut keys: Vec<ParamKey> = b
                .iter()
                .flat_map(|t| {
                    [
                        ks.entity_key(t.head),
                        ks.relation_key(t.relation),
                        ks.entity_key(t.tail),
                    ]
                })
                .chain((0..NEGATIVE_ENTITIES).map(|_| ks.entity_key(EntityId(rng.below(n) as u32))))
                .collect();
            keys.sort_unstable_by_key(|k| k.0);
            keys.dedup();
            keys
        })
        .collect();
    let grads: Vec<Vec<f32>> = batches
        .iter()
        .map(|keys| {
            (0..keys.len() * DIM)
                .map(|i| ((i % 13) as f32 - 6.0) * 1e-3)
                .collect()
        })
        .collect();
    let grad_rows: Vec<Vec<&[f32]>> = grads.iter().map(|g| g.chunks(DIM).collect()).collect();
    let per_batch = |secs: f64| secs * 1e6 / batches.len() as f64;

    let assignment: Vec<u32> = (0..n).map(|e| (e % MACHINES) as u32).collect();
    let new_store = || {
        Arc::new(KvStore::new(
            ShardRouter::new(ks, MACHINES, &assignment),
            DIM,
            DIM,
            1,
            Init::Xavier,
            args.seed,
        ))
    };
    let optimizer = OPTIMIZER.build();
    let store = new_store();
    let kv_pull = time_median(&tracer, "ps.kv_pull_many", 5, || {
        for keys in &batches {
            store.pull_many(keys, |i, row| {
                black_box((i, row));
            });
        }
    });
    let kv_push = time_median(&tracer, "ps.kv_push_grad_many", 5, || {
        for (keys, rows) in batches.iter().zip(&grad_rows) {
            store.push_grad_many(keys, rows, optimizer.as_ref());
        }
    });

    let topology = ClusterTopology::new(MACHINES, 1);
    let mut metrics = vec![
        Metric::new("ps.kv_pull_us_per_batch", per_batch(kv_pull), "us"),
        Metric::new("ps.kv_push_us_per_batch", per_batch(kv_push), "us"),
    ];
    let client = PsClient::new(0, topology, new_store(), Arc::new(TrafficMeter::new()));
    let (pull, push) = client_timings(&tracer, "ps.client", &client, &batches, &grad_rows);
    metrics.push(Metric::new(
        "ps.client_pull_us_per_batch",
        per_batch(pull),
        "us",
    ));
    metrics.push(Metric::new(
        "ps.client_push_us_per_batch",
        per_batch(push),
        "us",
    ));

    let bin = args.hetkg_bin.as_deref().expect("--hetkg-bin is required");
    let config = ShardServerConfig {
        num_entities: n,
        num_relations: bench.graph.num_relations(),
        entity_shard: assignment.clone(),
        num_shards: MACHINES,
        entity_dim: DIM,
        relation_dim: DIM,
        init: Init::Xavier,
        seed: args.seed,
        optimizer: OPTIMIZER,
    };
    let mut cluster =
        ProcessCluster::spawn(bin, &config, SocketMode::Uds).expect("spawn ps-server shards");
    let transport = Arc::new(cluster.transport());
    let uds = PsClient::new(0, topology, new_store(), Arc::new(TrafficMeter::new()))
        .with_transport(transport.clone());
    let (pull, push) = client_timings(&tracer, "ps.uds", &uds, &batches, &grad_rows);
    transport
        .send_shutdown()
        .expect("shut the ps-server shards down");
    cluster.wait().expect("ps-server shards exit cleanly");
    metrics.push(Metric::new(
        "ps.uds_pull_us_per_batch",
        per_batch(pull),
        "us",
    ));
    metrics.push(Metric::new(
        "ps.uds_push_us_per_batch",
        per_batch(push),
        "us",
    ));
    emit_probe(&metrics, &tracer);
}

/// Median seconds for one pass of batched pulls and one of pushes.
fn client_timings(
    tracer: &Tracer,
    name: &str,
    client: &PsClient,
    batches: &[Vec<ParamKey>],
    grad_rows: &[Vec<&[f32]>],
) -> (f64, f64) {
    let optimizer = OPTIMIZER.build();
    let mut scratch = PsScratch::new();
    let pull = time_median(tracer, &format!("{name}_pull_batch"), 5, || {
        for keys in batches {
            client.pull_batch_with(keys, &mut scratch, |i, row| {
                black_box((i, row));
            });
        }
    });
    let push = time_median(tracer, &format!("{name}_push_batch"), 5, || {
        for (keys, rows) in batches.iter().zip(grad_rows) {
            client.push_batch_with(keys, rows, optimizer.as_ref(), &mut scratch);
        }
    });
    (pull, push)
}
