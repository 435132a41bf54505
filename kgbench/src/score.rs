//! A TransE-L2 scorer written apart from the program, in f64, used to check
//! the program's top-k answers and ranks.
//!
//! `score(h, r, t) = -||h + r - t||_2`, computed in f64 from the f32
//! weights. The program computes the same function in f32, so an answer is
//! accepted up to near-ties: two candidates whose f64 scores differ by at
//! most [`tie_eps`] may come in either order.

use std::collections::HashMap;

/// Row-major weight tables, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a> {
    /// Entity rows, `dim` floats each.
    pub entities: &'a [f32],
    /// Relation rows, `dim` floats each.
    pub relations: &'a [f32],
    /// Embedding width.
    pub dim: usize,
}

impl Weights<'_> {
    fn e(&self, id: u32) -> &[f32] {
        &self.entities[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    fn r(&self, id: u32) -> &[f32] {
        &self.relations[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    /// Number of entity rows.
    pub fn num_entities(&self) -> usize {
        self.entities.len() / self.dim
    }

    /// f64 score of `(h, r, t)`.
    pub fn score(&self, h: u32, r: u32, t: u32) -> f64 {
        transe_l2(self.e(h), self.r(r), self.e(t))
    }
}

/// f64 TransE-L2 score of one triple.
pub fn transe_l2(h: &[f32], r: &[f32], t: &[f32]) -> f64 {
    let squared: f64 = h
        .iter()
        .zip(r)
        .zip(t)
        .map(|((&h, &r), &t)| {
            let d = h as f64 + r as f64 - t as f64;
            d * d
        })
        .sum();
    -squared.sqrt()
}

/// How far apart two scores near `s` may be and still count as tied: a
/// relative 1e-4, far above f32 rounding over 64 terms (about 1e-6) and
/// far below the gaps between distinct candidates.
pub fn tie_eps(s: f64) -> f64 {
    1e-4 * s.abs().max(1.0)
}

/// The filtering set: every true triple, grouped by the fixed pair.
#[derive(Debug, Default)]
pub struct Truth {
    tails: HashMap<(u32, u32), Vec<u32>>,
    heads: HashMap<(u32, u32), Vec<u32>>,
}

impl Truth {
    /// Index `(h, r, t)` triples.
    pub fn new(triples: impl IntoIterator<Item = [u32; 3]>) -> Self {
        let mut t = Self::default();
        for [h, r, tail] in triples {
            t.tails.entry((h, r)).or_default().push(tail);
            t.heads.entry((r, tail)).or_default().push(h);
        }
        for v in t.tails.values_mut().chain(t.heads.values_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        t
    }

    fn is_true_tail(&self, h: u32, r: u32, c: u32) -> bool {
        self.tails
            .get(&(h, r))
            .is_some_and(|v| v.binary_search(&c).is_ok())
    }

    fn is_true_head(&self, r: u32, t: u32, c: u32) -> bool {
        self.heads
            .get(&(r, t))
            .is_some_and(|v| v.binary_search(&c).is_ok())
    }
}

/// The ranks the program may report for one filtered ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankBounds {
    /// Rank if every near-tie resolves in the true entity's favour.
    pub lo: u64,
    /// Rank if every near-tie resolves against it.
    pub hi: u64,
    /// f64 rank with exact ties counted half, as the program counts them.
    pub exact: f64,
}

/// Filtered ranks of the true tail (`tail_side`) or head of `(h, r, t)`
/// against every entity.
pub fn rank_bounds(w: &Weights, truth: &Truth, [h, r, t]: [u32; 3], tail_side: bool) -> RankBounds {
    let true_score = w.score(h, r, t);
    let eps = tie_eps(true_score);
    let (mut above, mut near, mut greater, mut ties) = (0u64, 0u64, 0u64, 0u64);
    for c in 0..w.num_entities() as u32 {
        let (s, skip) = if tail_side {
            (w.score(h, r, c), c == t || truth.is_true_tail(h, r, c))
        } else {
            (w.score(c, r, t), c == h || truth.is_true_head(r, t, c))
        };
        if skip {
            continue;
        }
        if s > true_score + eps {
            above += 1;
        } else if s >= true_score - eps {
            near += 1;
        }
        if s > true_score {
            greater += 1;
        } else if s == true_score {
            ties += 1;
        }
    }
    RankBounds {
        lo: above + 1,
        hi: above + near + 1,
        exact: greater as f64 + (ties / 2) as f64 + 1.0,
    }
}

/// Check a top-`k` tail answer for `(h, r, ?)` against brute force: every
/// returned score matches its f64 score, the answer is in descending order
/// and holds `k` distinct entities, and it is the true top `k` up to
/// near-ties at the boundary.
pub fn check_topk(w: &Weights, h: u32, r: u32, k: usize, got: &[(u32, f32)]) -> Result<(), String> {
    let n = w.num_entities();
    if got.len() != k.min(n) {
        return Err(format!(
            "({h}, {r}, ?): {} answers, expected {}",
            got.len(),
            k.min(n)
        ));
    }
    let mut all: Vec<(f64, u32)> = (0..n as u32).map(|c| (w.score(h, r, c), c)).collect();
    all.sort_by(|a, b| b.0.total_cmp(&a.0));
    let kth = all[got.len() - 1].0;
    let mut ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != got.len() {
        return Err(format!("({h}, {r}, ?): duplicate entities in {got:?}"));
    }
    let mut prev = f64::INFINITY;
    for &(id, s32) in got {
        if id as usize >= n {
            return Err(format!("({h}, {r}, ?): entity {id} out of range"));
        }
        let s = w.score(h, r, id);
        if (s32 as f64 - s).abs() > tie_eps(s) {
            return Err(format!("({h}, {r}, {id}): score {s32} but f64 gives {s}"));
        }
        if s > prev + tie_eps(s) {
            return Err(format!("({h}, {r}, ?): answer not in descending order"));
        }
        if s < kth - tie_eps(kth) {
            return Err(format!(
                "({h}, {r}, {id}): score {s} is below the true top-{k} ({kth})"
            ));
        }
        prev = s;
    }
    for &(s, id) in &all {
        if s <= kth + tie_eps(kth) {
            break;
        }
        if ids.binary_search(&id).is_err() {
            return Err(format!("({h}, {r}, ?): missed entity {id} with score {s}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> (Vec<f32>, Vec<f32>) {
        // Four entities and one relation in two dimensions.
        (vec![0.0, 0.0, 1.0, 0.0, 3.0, 4.0, 2.0, 0.0], vec![1.0, 0.0])
    }

    #[test]
    fn score_matches_hand_computation() {
        let (e, r) = weights();
        let w = Weights {
            entities: &e,
            relations: &r,
            dim: 2,
        };
        // h + r = (1, 0): distance 0 to entity 1, 1 to entity 0, sqrt(20)
        // to entity 2.
        assert_eq!(w.score(0, 0, 1), 0.0);
        assert_eq!(w.score(0, 0, 0), -1.0);
        assert!((w.score(0, 0, 2) + 20f64.sqrt()).abs() < 1e-12);
        // Entity 2 as head: (4, 4) - (1, 0) = (3, 4), norm 5.
        assert!((w.score(2, 0, 1) + 5.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_respect_the_filter_and_ties() {
        let (e, r) = weights();
        let w = Weights {
            entities: &e,
            relations: &r,
            dim: 2,
        };
        let none = Truth::new([]);
        // True tail 2 of (0, 0, ?) scores worst: the other three rank above.
        let b = rank_bounds(&w, &none, [0, 0, 2], true);
        assert_eq!((b.lo, b.hi, b.exact), (4, 4, 4.0));
        // Filtering (0, 0, 1) as another true answer lifts tail 2 to rank 3.
        let truth = Truth::new([[0, 0, 1]]);
        assert_eq!(rank_bounds(&w, &truth, [0, 0, 2], true).lo, 3);
        // Tail 0 of (0, 0, ?) scores -1: entity 1 (0) is above, entity 3
        // ties at -1, so the rank is 2 or 3, and 2 with ties counted half.
        let b = rank_bounds(&w, &none, [0, 0, 0], true);
        assert_eq!((b.lo, b.hi, b.exact), (2, 3, 2.0));
        // Head side of (1, 0, 0) scores -2: only head 0 (-1) is above.
        let b = rank_bounds(&w, &none, [1, 0, 0], false);
        assert_eq!((b.lo, b.hi), (2, 2));
    }

    #[test]
    fn topk_check_accepts_the_right_answer_and_rejects_wrong_ones() {
        let (e, r) = weights();
        let w = Weights {
            entities: &e,
            relations: &r,
            dim: 2,
        };
        // Entities 0 and 3 tie at -1 for second place: either is right.
        assert!(check_topk(&w, 0, 0, 2, &[(1, 0.0), (0, -1.0)]).is_ok());
        assert!(check_topk(&w, 0, 0, 2, &[(1, 0.0), (3, -1.0)]).is_ok());
        assert!(check_topk(&w, 0, 0, 2, &[(1, 0.0), (2, -4.472136)]).is_err());
        assert!(check_topk(&w, 0, 0, 2, &[(0, -1.0), (1, 0.0)]).is_err());
        assert!(check_topk(&w, 0, 0, 2, &[(1, 0.5), (0, -1.0)]).is_err());
        assert!(check_topk(&w, 0, 0, 2, &[(1, 0.0)]).is_err());
    }
}
