//! The workload's input: a WN18-shaped triple set made from the seed alone
//! and written as the `train.txt`/`valid.txt`/`test.txt` trio the program
//! loads with `kgraph::io::load_benchmark`.
//!
//! Shape: 40,943 entities, 18 relations, 151,442 distinct triples without
//! self-loops, split 90/5/5. A first pass pairs every entity with another
//! (so each entity occurs at least once, as in WN18); the rest of the
//! triples draw heads and tails from Zipf(0.75) over entities and labels
//! from Zipf(0.9) over relations, with hotness scattered over the id space
//! by a seeded permutation.

use crate::rng::Rng;
use crate::zipf::Zipf;
use std::collections::HashSet;
use std::path::Path;

/// Entities in the set.
pub const ENTITIES: usize = 40_943;
/// Relations in the set.
pub const RELATIONS: usize = 18;
/// Distinct triples in the set.
pub const TRIPLES: usize = 151_442;
/// Zipf exponent of head and tail entities.
pub const ENTITY_ZIPF: f64 = 0.75;
/// Zipf exponent of relation labels.
pub const RELATION_ZIPF: f64 = 0.9;
/// Validation and test triples each (5% of the set).
pub const HELD_OUT: usize = TRIPLES * 5 / 100;
/// Training triples (the remaining 90%).
pub const TRAIN: usize = TRIPLES - 2 * HELD_OUT;

const STREAM_INPUTS: u64 = 1;

/// One generated split, as `(head, relation, tail)` ids of the generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// Training triples.
    pub train: Vec<[u32; 3]>,
    /// Validation triples.
    pub valid: Vec<[u32; 3]>,
    /// Test triples.
    pub test: Vec<[u32; 3]>,
}

/// Make the triple set for `seed`.
pub fn generate(seed: u64) -> Generated {
    let mut rng = Rng::new(seed, STREAM_INPUTS);
    let mut entity_of_rank: Vec<u32> = (0..ENTITIES as u32).collect();
    rng.shuffle(&mut entity_of_rank);
    let mut relation_of_rank: Vec<u32> = (0..RELATIONS as u32).collect();
    rng.shuffle(&mut relation_of_rank);
    let entity_zipf = Zipf::new(ENTITIES, ENTITY_ZIPF);
    let relation_zipf = Zipf::new(RELATIONS, RELATION_ZIPF);

    let mut seen: HashSet<[u32; 3]> = HashSet::with_capacity(TRIPLES * 2);
    let mut triples: Vec<[u32; 3]> = Vec::with_capacity(TRIPLES);

    // Coverage pass: for every even i, one triple links order[i] to
    // order[i + 1], so every entity occurs at least once.
    let mut order: Vec<u32> = (0..ENTITIES as u32).collect();
    rng.shuffle(&mut order);
    for i in (0..ENTITIES).step_by(2) {
        let r = relation_of_rank[relation_zipf.sample(&mut rng)];
        let t = [order[i], r, order[(i + 1) % ENTITIES]];
        if seen.insert(t) {
            triples.push(t);
        }
    }

    let max_attempts = TRIPLES * 50;
    let mut attempts = 0;
    while triples.len() < TRIPLES {
        attempts += 1;
        assert!(
            attempts < max_attempts,
            "triple generation did not converge"
        );
        let h = entity_of_rank[entity_zipf.sample(&mut rng)];
        let t = entity_of_rank[entity_zipf.sample(&mut rng)];
        if h == t {
            continue;
        }
        let r = relation_of_rank[relation_zipf.sample(&mut rng)];
        let triple = [h, r, t];
        if seen.insert(triple) {
            triples.push(triple);
        }
    }
    rng.shuffle(&mut triples);
    let test = triples.split_off(TRAIN + HELD_OUT);
    let valid = triples.split_off(TRAIN);
    Generated {
        train: triples,
        valid,
        test,
    }
}

fn tsv(triples: &[[u32; 3]]) -> String {
    let mut s = String::with_capacity(triples.len() * 20);
    for [h, r, t] in triples {
        s.push_str(&format!("e{h}\tr{r}\te{t}\n"));
    }
    s
}

/// FNV-1a (64-bit), the digest printed for the TSV trio.
fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Write the trio into `dir` and return the FNV-1a digest of the three
/// files' bytes, in train/valid/test order.
pub fn write_trio(dir: &Path, g: &Generated) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut digest = FNV_OFFSET;
    for (name, triples) in [
        ("train.txt", &g.train),
        ("valid.txt", &g.valid),
        ("test.txt", &g.test),
    ] {
        let text = tsv(triples);
        digest = fnv1a64(text.as_bytes(), digest);
        std::fs::write(dir.join(name), text)?;
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sizes_are_ninety_five_five() {
        assert_eq!(HELD_OUT, 7_572);
        assert_eq!(TRAIN, 136_298);
    }

    #[test]
    fn generated_set_has_the_wn18_shape() {
        let g = generate(5);
        assert_eq!(g.train.len(), TRAIN);
        assert_eq!(g.valid.len(), HELD_OUT);
        assert_eq!(g.test.len(), HELD_OUT);
        let all: Vec<[u32; 3]> = [&g.train, &g.valid, &g.test]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let distinct: HashSet<[u32; 3]> = all.iter().copied().collect();
        assert_eq!(distinct.len(), TRIPLES, "triples are distinct");
        assert!(all.iter().all(|t| t[0] != t[2]), "no self-loops");
        let mut seen = vec![false; ENTITIES];
        for t in &all {
            seen[t[0] as usize] = true;
            seen[t[2] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every entity occurs");
        assert!(all.iter().all(|t| (t[1] as usize) < RELATIONS));
        assert_eq!(g, generate(5), "same seed, same set");
        assert_ne!(g.train[..10], generate(6).train[..10]);
    }
}
