//! Viterbi decoding over the candidate lattice, with break recovery.
//!
//! A *break* occurs when no candidate of a step can be reached from any
//! candidate of the previous step (all transitions −∞): the vehicle
//! teleported as far as the HMM is concerned — disconnected road
//! components, long dropouts, or a candidate radius too small. Rather than
//! failing the whole trace, decoding restarts at the broken step and the
//! result records the boundary, so downstream stitching yields several
//! disjoint path segments.

use ct_spatial::Point;
use serde::{Deserialize, Serialize};

use crate::project::EdgeProjection;

/// One lattice step: a sample that produced at least one candidate.
#[derive(Debug, Clone)]
pub struct LatticeStep {
    /// Index of the originating sample in the trace.
    pub sample_idx: usize,
    /// Observed sample position (used for transition straight-line gaps).
    pub pos: Point,
    /// Candidate projections, nearest first.
    pub candidates: Vec<EdgeProjection>,
    /// Emission log-probability per candidate (aligned with `candidates`).
    pub emission: Vec<f64>,
}

/// One matched sample: which candidate won.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchedPoint {
    /// Index of the sample in the input trace.
    pub sample_idx: usize,
    /// The winning candidate projection.
    pub candidate: EdgeProjection,
}

/// The output of map-matching one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// Matched samples in trace order.
    pub matched: Vec<MatchedPoint>,
    /// Indices into `matched` where a new connected segment begins
    /// (the implicit first segment start at 0 is not listed).
    pub breaks: Vec<usize>,
    /// Sample indices that produced no candidates at all.
    pub unmatched: Vec<usize>,
    /// Total log-likelihood of the decoded sequence (sums emission and
    /// transition scores; break restarts contribute emission only).
    pub log_likelihood: f64,
}

impl MatchResult {
    /// The matched points split into connected segments at the breaks.
    pub fn segments(&self) -> Vec<&[MatchedPoint]> {
        if self.matched.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.breaks.len() + 1);
        let mut start = 0usize;
        for &b in &self.breaks {
            out.push(&self.matched[start..b]);
            start = b;
        }
        out.push(&self.matched[start..]);
        out
    }
}

/// Runs Viterbi over `steps` joined by `transitions`
/// (`transitions[i][p][c]` is the log-probability of moving from candidate
/// `p` of step `i` to candidate `c` of step `i+1`).
///
/// # Panics
/// Panics if `transitions.len() + 1 != steps.len()` (unless both empty) or
/// if a matrix's dimensions do not match its steps.
pub fn viterbi(steps: &[LatticeStep], transitions: &[Vec<Vec<f64>>]) -> MatchResult {
    if steps.is_empty() {
        return MatchResult::default();
    }
    assert_eq!(
        transitions.len() + 1,
        steps.len(),
        "need exactly one transition matrix per consecutive step pair"
    );

    // delta[c]: best log-prob of any path ending in candidate c of the
    // current step; back[i][c]: the predecessor candidate at step i.
    let mut delta: Vec<f64> = steps[0].emission.clone();
    let mut back: Vec<Vec<Option<usize>>> = Vec::with_capacity(steps.len());
    back.push(vec![None; steps[0].candidates.len()]);

    let mut breaks = Vec::new();
    let mut segment_start = 0usize; // step index where the current segment began
    let mut log_likelihood = 0.0;
    let mut best_path: Vec<usize> = Vec::with_capacity(steps.len());

    // Finalizes the segment [segment_start, end) by backtracking from the
    // best terminal candidate; appends the chosen candidate indices.
    let finalize = |delta: &[f64],
                    back: &[Vec<Option<usize>>],
                    segment_start: usize,
                    end: usize,
                    best_path: &mut Vec<usize>,
                    log_likelihood: &mut f64| {
        let (mut c, score) = delta
            .iter()
            .enumerate()
            .map(|(i, &d)| (i, d))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are not NaN"))
            .expect("non-empty candidate list");
        *log_likelihood += score;
        let mut rev = Vec::with_capacity(end - segment_start);
        for i in (segment_start..end).rev() {
            rev.push(c);
            if let Some(p) = back[i][c] {
                c = p;
            }
        }
        best_path.extend(rev.into_iter().rev());
    };

    for i in 1..steps.len() {
        let trans = &transitions[i - 1];
        assert_eq!(trans.len(), steps[i - 1].candidates.len(), "transition rows");
        let cur = &steps[i];
        let mut new_delta = vec![f64::NEG_INFINITY; cur.candidates.len()];
        let mut new_back = vec![None; cur.candidates.len()];
        for (p, row) in trans.iter().enumerate() {
            assert_eq!(row.len(), cur.candidates.len(), "transition cols");
            if delta[p] == f64::NEG_INFINITY {
                continue;
            }
            for (c, &t) in row.iter().enumerate() {
                let score = delta[p] + t;
                if score > new_delta[c] {
                    new_delta[c] = score;
                    new_back[c] = Some(p);
                }
            }
        }
        if new_delta.iter().all(|&d| d == f64::NEG_INFINITY) {
            // Lattice break: finalize the running segment, restart here.
            finalize(&delta, &back, segment_start, i, &mut best_path, &mut log_likelihood);
            breaks.push(i);
            segment_start = i;
            delta = cur.emission.clone();
            back.push(vec![None; cur.candidates.len()]);
        } else {
            for (c, d) in new_delta.iter_mut().enumerate() {
                *d += cur.emission[c];
            }
            delta = new_delta;
            back.push(new_back);
        }
    }
    finalize(&delta, &back, segment_start, steps.len(), &mut best_path, &mut log_likelihood);

    let matched = best_path
        .iter()
        .zip(steps)
        .map(|(&c, step)| MatchedPoint {
            sample_idx: step.sample_idx,
            candidate: step.candidates[c],
        })
        .collect();
    MatchResult { matched, breaks, unmatched: Vec::new(), log_likelihood }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(edge: u32, dist: f64) -> EdgeProjection {
        EdgeProjection { edge, point: Point::new(0.0, 0.0), t: 0.5, dist }
    }

    fn step(sample_idx: usize, emissions: &[f64]) -> LatticeStep {
        LatticeStep {
            sample_idx,
            pos: Point::new(0.0, 0.0),
            candidates: (0..emissions.len()).map(|i| proj(i as u32, 1.0)).collect(),
            emission: emissions.to_vec(),
        }
    }

    #[test]
    fn single_step_picks_best_emission() {
        let steps = vec![step(0, &[-5.0, -1.0, -3.0])];
        let r = viterbi(&steps, &[]);
        assert_eq!(r.matched.len(), 1);
        assert_eq!(r.matched[0].candidate.edge, 1);
        assert_eq!(r.log_likelihood, -1.0);
    }

    #[test]
    fn transition_outweighs_greedy_emission() {
        // Candidate 0 of step 0 has worse emission but leads to a much
        // better transition; Viterbi must not be greedy.
        let steps = vec![step(0, &[-2.0, -1.0]), step(1, &[0.0, 0.0])];
        let transitions = vec![vec![
            vec![-0.1, -10.0], // from candidate 0
            vec![-9.0, -9.0],  // from candidate 1
        ]];
        let r = viterbi(&steps, &transitions);
        let picks: Vec<u32> = r.matched.iter().map(|m| m.candidate.edge).collect();
        assert_eq!(picks, vec![0, 0]);
        assert!((r.log_likelihood - (-2.0 - 0.1 + 0.0)).abs() < 1e-12);
    }

    #[test]
    fn all_infinite_transitions_break_the_lattice() {
        let steps = vec![step(0, &[-1.0]), step(7, &[-2.0])];
        let transitions = vec![vec![vec![f64::NEG_INFINITY]]];
        let r = viterbi(&steps, &transitions);
        assert_eq!(r.matched.len(), 2);
        assert_eq!(r.breaks, vec![1]);
        // Likelihood = both segments' emissions, no transition.
        assert!((r.log_likelihood - (-3.0)).abs() < 1e-12);
        let segs = r.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), 1);
        assert_eq!(segs[1].len(), 1);
        assert_eq!(segs[1][0].sample_idx, 7);
    }

    #[test]
    fn partial_reachability_avoids_the_break() {
        // Only candidate 1 of step 1 is reachable; no break, and the
        // unreachable candidate is never picked even with a great emission.
        let steps = vec![step(0, &[-1.0]), step(1, &[100.0, -50.0])];
        let transitions = vec![vec![vec![f64::NEG_INFINITY, -1.0]]];
        let r = viterbi(&steps, &transitions);
        assert!(r.breaks.is_empty());
        assert_eq!(r.matched[1].candidate.edge, 1);
    }

    #[test]
    fn empty_lattice() {
        let r = viterbi(&[], &[]);
        assert!(r.matched.is_empty());
        assert!(r.segments().is_empty());
    }

    #[test]
    #[should_panic(expected = "one transition matrix")]
    fn mismatched_transitions_panic() {
        let steps = vec![step(0, &[-1.0]), step(1, &[-1.0])];
        viterbi(&steps, &[]);
    }

    #[test]
    fn three_step_chain_decodes_global_optimum() {
        // A trap: greedy would pick candidate 0 at step 1, but the global
        // optimum runs through candidate 1.
        let steps = vec![step(0, &[0.0]), step(1, &[-0.5, -1.0]), step(2, &[0.0])];
        let transitions = vec![
            vec![vec![-0.1, -0.2]],
            vec![
                vec![-100.0], // from step-1 candidate 0
                vec![-0.1],   // from step-1 candidate 1
            ],
        ];
        let r = viterbi(&steps, &transitions);
        let picks: Vec<u32> = r.matched.iter().map(|m| m.candidate.edge).collect();
        assert_eq!(picks, vec![0, 1, 0]);
    }
}
