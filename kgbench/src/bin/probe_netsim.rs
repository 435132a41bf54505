//! Probe of the `netsim` layer at the workload's mean cross-machine frame
//! size: sealing and verifying a frame's checksum, and the socket framing
//! (`stream::write_frame` then `stream::read_message`, in memory).

use het_kg::netsim::{stream, WireFrame};
use kgbench::out::{emit_probe, Metric};
use kgbench::trace::Tracer;
use kgbench::{time_median, ProbeArgs, DIM};
use std::hint::black_box;
use std::io::Cursor;

const REPS: usize = 2000;
/// A push frame's op byte; the framing carries it without interpreting it.
const OP: u8 = 2;

fn main() {
    let args = ProbeArgs::from_env();
    let tracer = Tracer::new(true);
    let k = args.frame_keys.max(1);
    let mut keys: Vec<u64> = (0..k as u64).map(|i| i * 7919).collect();
    let mut payload: Vec<f32> = (0..k * DIM)
        .map(|i| (i % 97) as f32 * 0.01 - 0.48)
        .collect();
    let seal_s = time_median(&tracer, "netsim.seal_verify", 5, || {
        for _ in 0..REPS {
            let frame = WireFrame::seal(std::mem::take(&mut keys), std::mem::take(&mut payload));
            assert!(frame.verify(), "a clean frame verifies");
            keys = frame.keys;
            payload = frame.payload;
        }
    });

    let frame = WireFrame::seal(keys, payload);
    let mut buf = Vec::new();
    let stream_s = time_median(&tracer, "netsim.stream_frame", 5, || {
        for _ in 0..REPS {
            buf.clear();
            stream::write_frame(&mut buf, OP, &frame).expect("in-memory write");
            let msg = stream::read_message(&mut Cursor::new(&buf)).expect("in-memory read");
            black_box(msg);
        }
    });
    emit_probe(
        &[
            Metric::new(
                "netsim.seal_verify_us_per_frame",
                seal_s * 1e6 / REPS as f64,
                "us",
            ),
            Metric::new("netsim.stream_frame_us", stream_s * 1e6 / REPS as f64, "us"),
        ],
        &tracer,
    );
}
