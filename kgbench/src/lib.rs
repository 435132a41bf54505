//! The het-kg benchmark harness.
//!
//! The end-to-end runner (`src/main.rs`) drives the program through its
//! public entry points and prints one JSON result line; the per-layer
//! probes (`src/bin/probe_*.rs`) are separate targets, one per layer, so
//! an API change in one layer breaks only that layer's probe. This library
//! holds what both sides share and what must not depend on the program:
//! the input generator, its random source, the f64 reference scorer,
//! sample statistics, span recording and the output formats.

pub mod inputs;
pub mod out;
pub mod rng;
pub mod score;
pub mod stats;
pub mod trace;
pub mod zipf;

use std::collections::HashMap;
use std::path::PathBuf;

/// Embedding width of every workload.
pub const DIM: usize = 64;
/// Positive triples per mini-batch.
pub const BATCH: usize = 64;
/// Simulated machines (and PS shards).
pub const MACHINES: usize = 2;
/// Random stream of the serving lookups' Zipf(1.0) keys, shared by the
/// runner and the serve probe so both replay the same keys.
pub const STREAM_LOOKUPS: u64 = 2;

/// `--name value` pairs, every name given once.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(flags)
}

/// The arguments every probe takes from the runner.
#[derive(Debug, Clone)]
pub struct ProbeArgs {
    /// Directory holding the workload's `train.txt`/`valid.txt`/`test.txt`.
    pub data: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Mean keys per cross-machine frame in the workload's training run.
    pub frame_keys: usize,
    /// The `hetkg` binary (for probes that spawn PS-server processes).
    pub hetkg_bin: Option<PathBuf>,
}

impl ProbeArgs {
    /// Parse the process arguments; exits with code 2 on a bad argument.
    pub fn from_env() -> Self {
        let parse = || -> Result<Self, String> {
            let flags = parse_flags(std::env::args().skip(1))?;
            let get = |n: &str| flags.get(n).ok_or_else(|| format!("missing --{n}"));
            Ok(Self {
                data: PathBuf::from(get("data")?),
                seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                frame_keys: get("frame-keys")?
                    .parse()
                    .map_err(|e| format!("--frame-keys: {e}"))?,
                hetkg_bin: flags.get("hetkg-bin").map(PathBuf::from),
            })
        };
        parse().unwrap_or_else(|e| {
            eprintln!("probe: {e}");
            std::process::exit(2)
        })
    }
}

/// Median seconds per call of `f` over `reps` calls (after one warm-up
/// call), with the calls' spans recorded under `name`.
pub fn time_median(tracer: &trace::Tracer, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            tracer.span(name, 0, |_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    stats::median(&secs).expect("at least one repetition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let f = parse_flags(["--seed".to_string(), "3".to_string()]).unwrap();
        assert_eq!(f["seed"], "3");
        assert!(parse_flags(["seed".to_string()]).is_err());
        assert!(parse_flags(["--seed".to_string()]).is_err());
        assert!(parse_flags(["--a", "1", "--a", "2"].map(String::from)).is_err());
    }
}
