//! Discrete hidden Markov models for stochastic event recognition.
//!
//! "As the model provides a framework for stochastic modeling of events,
//! other possibilities are to exploit the learning capability of Hidden
//! Markov Models … to recognize events in video data automatically" —
//! and \[PJZ01\], "Recognizing strokes in tennis videos using hidden
//! markov models", is the concrete instantiation: per-stroke HMMs over
//! quantised pose-feature symbols, classified by maximum likelihood.
//!
//! The implementation is the standard scaled forward/backward with
//! Baum-Welch re-estimation and Viterbi decoding.

#![allow(clippy::needless_range_loop)] // matrix-index style is clearer for HMM math

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::PlayerObservation;

/// A discrete HMM with `n` hidden states and `m` observation symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    /// Initial state distribution, length `n`.
    pub pi: Vec<f64>,
    /// Transition matrix, `n × n` (rows sum to 1).
    pub a: Vec<Vec<f64>>,
    /// Emission matrix, `n × m` (rows sum to 1).
    pub b: Vec<Vec<f64>>,
}

impl Hmm {
    /// A randomly perturbed near-uniform model (the usual Baum-Welch
    /// starting point; perturbation breaks symmetry).
    pub fn new_random(states: usize, symbols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_dist = |len: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..len).map(|_| 1.0 + rng.gen_range(0.0..0.2)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|v| v / sum).collect()
        };
        Hmm {
            pi: rand_dist(states),
            a: (0..states).map(|_| rand_dist(states)).collect(),
            b: (0..states).map(|_| rand_dist(symbols)).collect(),
        }
    }

    /// Number of hidden states.
    pub fn states(&self) -> usize {
        self.pi.len()
    }

    /// Number of observation symbols.
    pub fn symbols(&self) -> usize {
        self.b.first().map(Vec::len).unwrap_or(0)
    }

    /// Scaled forward pass; returns (alpha, per-step scales).
    fn forward(&self, obs: &[usize]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = self.states();
        let t_len = obs.len();
        let mut alpha = vec![vec![0.0; n]; t_len];
        let mut scale = vec![0.0; t_len];
        for i in 0..n {
            alpha[0][i] = self.pi[i] * self.b[i][obs[0]];
        }
        scale[0] = alpha[0].iter().sum::<f64>().max(f64::MIN_POSITIVE);
        for v in alpha[0].iter_mut() {
            *v /= scale[0];
        }
        for t in 1..t_len {
            for j in 0..n {
                let mut s = 0.0;
                for i in 0..n {
                    s += alpha[t - 1][i] * self.a[i][j];
                }
                alpha[t][j] = s * self.b[j][obs[t]];
            }
            scale[t] = alpha[t].iter().sum::<f64>().max(f64::MIN_POSITIVE);
            for v in alpha[t].iter_mut() {
                *v /= scale[t];
            }
        }
        (alpha, scale)
    }

    /// Log-likelihood of an observation sequence.
    pub fn log_likelihood(&self, obs: &[usize]) -> f64 {
        if obs.is_empty() {
            return 0.0;
        }
        let (_, scale) = self.forward(obs);
        scale.iter().map(|s| s.ln()).sum()
    }

    /// Viterbi decoding: the most likely state path and its log
    /// probability.
    pub fn viterbi(&self, obs: &[usize]) -> (Vec<usize>, f64) {
        let n = self.states();
        if obs.is_empty() {
            return (Vec::new(), 0.0);
        }
        let log = |x: f64| if x > 0.0 { x.ln() } else { f64::NEG_INFINITY };
        let t_len = obs.len();
        let mut delta = vec![vec![f64::NEG_INFINITY; n]; t_len];
        let mut back = vec![vec![0usize; n]; t_len];
        for i in 0..n {
            delta[0][i] = log(self.pi[i]) + log(self.b[i][obs[0]]);
        }
        for t in 1..t_len {
            for j in 0..n {
                let mut best = (f64::NEG_INFINITY, 0usize);
                for i in 0..n {
                    let cand = delta[t - 1][i] + log(self.a[i][j]);
                    if cand > best.0 {
                        best = (cand, i);
                    }
                }
                delta[t][j] = best.0 + log(self.b[j][obs[t]]);
                back[t][j] = best.1;
            }
        }
        let (mut state, score) = delta[t_len - 1]
            .iter()
            .enumerate()
            .map(|(i, v)| (i, *v))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("n > 0");
        let mut path = vec![0usize; t_len];
        path[t_len - 1] = state;
        for t in (1..t_len).rev() {
            state = back[t][state];
            path[t - 1] = state;
        }
        (path, score)
    }

    /// One Baum-Welch re-estimation sweep over multiple sequences;
    /// returns the total log-likelihood *before* the update.
    pub fn baum_welch_step(&mut self, sequences: &[Vec<usize>]) -> f64 {
        let n = self.states();
        let m = self.symbols();
        let mut pi_acc = vec![1e-8; n];
        let mut a_num = vec![vec![1e-8; n]; n];
        let mut a_den = vec![1e-8; n];
        let mut b_num = vec![vec![1e-8; m]; n];
        let mut b_den = vec![1e-8; n];
        let mut total_ll = 0.0;

        for obs in sequences {
            if obs.is_empty() {
                continue;
            }
            let t_len = obs.len();
            let (alpha, scale) = self.forward(obs);
            total_ll += scale.iter().map(|s| s.ln()).sum::<f64>();

            // Scaled backward pass.
            let mut beta = vec![vec![0.0; n]; t_len];
            for v in beta[t_len - 1].iter_mut() {
                *v = 1.0 / scale[t_len - 1];
            }
            for t in (0..t_len - 1).rev() {
                for i in 0..n {
                    let mut s = 0.0;
                    for j in 0..n {
                        s += self.a[i][j] * self.b[j][obs[t + 1]] * beta[t + 1][j];
                    }
                    beta[t][i] = s / scale[t];
                }
            }

            // Accumulate statistics.
            for t in 0..t_len {
                let mut gamma = vec![0.0; n];
                let mut norm = 0.0;
                for i in 0..n {
                    gamma[i] = alpha[t][i] * beta[t][i];
                    norm += gamma[i];
                }
                if norm <= 0.0 {
                    continue;
                }
                for (i, g) in gamma.iter().enumerate() {
                    let g = g / norm;
                    if t == 0 {
                        pi_acc[i] += g;
                    }
                    b_num[i][obs[t]] += g;
                    b_den[i] += g;
                    if t + 1 < t_len {
                        a_den[i] += g;
                    }
                }
                if t + 1 < t_len {
                    let mut xi_norm = 0.0;
                    let mut xi = vec![vec![0.0; n]; n];
                    for i in 0..n {
                        for j in 0..n {
                            xi[i][j] = alpha[t][i]
                                * self.a[i][j]
                                * self.b[j][obs[t + 1]]
                                * beta[t + 1][j];
                            xi_norm += xi[i][j];
                        }
                    }
                    if xi_norm > 0.0 {
                        for i in 0..n {
                            for j in 0..n {
                                a_num[i][j] += xi[i][j] / xi_norm;
                            }
                        }
                    }
                }
            }
        }

        // Re-estimate.
        let pi_sum: f64 = pi_acc.iter().sum();
        for i in 0..n {
            self.pi[i] = pi_acc[i] / pi_sum;
            for j in 0..n {
                self.a[i][j] = a_num[i][j] / (a_den[i] + (n as f64) * 1e-8);
            }
            normalise(&mut self.a[i]);
            for k in 0..m {
                self.b[i][k] = b_num[i][k] / (b_den[i] + (m as f64) * 1e-8);
            }
            normalise(&mut self.b[i]);
        }
        total_ll
    }

    /// Trains with Baum-Welch until convergence or `max_iters`.
    pub fn train(&mut self, sequences: &[Vec<usize>], max_iters: usize) -> Vec<f64> {
        let mut history = Vec::new();
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..max_iters {
            let ll = self.baum_welch_step(sequences);
            history.push(ll);
            if (ll - prev).abs() < 1e-6 {
                break;
            }
            prev = ll;
        }
        history
    }
}

fn normalise(row: &mut [f64]) {
    let sum: f64 = row.iter().sum();
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// A maximum-likelihood classifier over per-class HMMs — the stroke
/// recogniser of \[PJZ01\].
#[derive(Debug, Clone, Default)]
pub struct StrokeRecognizer {
    models: Vec<(String, Hmm)>,
}

impl StrokeRecognizer {
    /// An empty recogniser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains one model per labelled class.
    pub fn train_class(
        &mut self,
        label: impl Into<String>,
        sequences: &[Vec<usize>],
        states: usize,
        symbols: usize,
        seed: u64,
    ) {
        let mut hmm = Hmm::new_random(states, symbols, seed);
        hmm.train(sequences, 40);
        self.models.push((label.into(), hmm));
    }

    /// Classifies a sequence by maximum log-likelihood.
    pub fn classify(&self, obs: &[usize]) -> Option<&str> {
        self.models
            .iter()
            .map(|(label, hmm)| (label.as_str(), hmm.log_likelihood(obs)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(label, _)| label)
    }
}

/// Number of pose symbols produced by [`quantize_pose`].
pub const POSE_SYMBOLS: usize = 6;

/// Quantises a player observation into a pose symbol: 3 orientation
/// buckets × 2 eccentricity buckets. The stroke recogniser consumes
/// these, closing the loop from the tracking pipeline to the HMM layer.
pub fn quantize_pose(o: &PlayerObservation) -> usize {
    let orient_bucket = ((o.orientation / 60.0) as usize).min(2);
    let ecc_bucket = usize::from(o.eccentricity > 0.85);
    orient_bucket * 2 + ecc_bucket
}

/// Generates labelled synthetic stroke observation sequences from
/// scripted prototype symbol patterns plus noise — the training corpus a
/// real deployment would digitise from annotated footage.
pub fn synthetic_strokes(
    label: &str,
    count: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let prototype: &[usize] = match label {
        // Pose-symbol scripts: a serve sweeps the orientation buckets,
        // a forehand oscillates low buckets, a backhand high buckets.
        "serve" => &[0, 0, 2, 2, 4, 4, 5, 5, 4, 2, 0],
        "forehand" => &[1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
        "backhand" => &[4, 4, 5, 5, 4, 4, 5, 5, 4, 4],
        _ => &[3, 3, 3, 3, 3, 3],
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            prototype
                .iter()
                .map(|&s| {
                    if rng.gen_bool(0.12) {
                        rng.gen_range(0..POSE_SYMBOLS)
                    } else {
                        s
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_distributions_after_training() {
        let seqs = synthetic_strokes("serve", 20, 1);
        let mut hmm = Hmm::new_random(3, POSE_SYMBOLS, 2);
        hmm.train(&seqs, 20);
        let near_one = |v: f64| (v - 1.0).abs() < 1e-6;
        assert!(near_one(hmm.pi.iter().sum::<f64>()));
        for row in &hmm.a {
            assert!(near_one(row.iter().sum::<f64>()));
        }
        for row in &hmm.b {
            assert!(near_one(row.iter().sum::<f64>()));
        }
    }

    #[test]
    fn baum_welch_increases_likelihood() {
        let seqs = synthetic_strokes("forehand", 15, 3);
        let mut hmm = Hmm::new_random(3, POSE_SYMBOLS, 4);
        let history = hmm.train(&seqs, 25);
        assert!(history.len() >= 2);
        // Monotone non-decreasing (within numerical tolerance).
        for w in history.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "{:?}", history);
        }
    }

    #[test]
    fn viterbi_path_has_sequence_length() {
        let seqs = synthetic_strokes("serve", 5, 7);
        let mut hmm = Hmm::new_random(4, POSE_SYMBOLS, 8);
        hmm.train(&seqs, 10);
        let (path, score) = hmm.viterbi(&seqs[0]);
        assert_eq!(path.len(), seqs[0].len());
        assert!(score.is_finite());
        assert!(path.iter().all(|s| *s < 4));
    }

    #[test]
    fn stroke_recognizer_separates_the_three_strokes() {
        let mut rec = StrokeRecognizer::new();
        for (i, label) in ["serve", "forehand", "backhand"].iter().enumerate() {
            let train = synthetic_strokes(label, 30, 100 + i as u64);
            rec.train_class(*label, &train, 4, POSE_SYMBOLS, 200 + i as u64);
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, label) in ["serve", "forehand", "backhand"].iter().enumerate() {
            for seq in synthetic_strokes(label, 20, 300 + i as u64) {
                total += 1;
                if rec.classify(&seq) == Some(label) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc >= 0.9, "stroke accuracy {acc}");
    }

    #[test]
    fn empty_sequence_is_neutral() {
        let hmm = Hmm::new_random(2, 4, 1);
        assert_eq!(hmm.log_likelihood(&[]), 0.0);
        assert_eq!(hmm.viterbi(&[]).0, Vec::<usize>::new());
    }

    #[test]
    fn quantize_pose_covers_symbol_range() {
        let mut seen = std::collections::HashSet::new();
        for orientation in [10.0, 70.0, 130.0] {
            for ecc in [0.5, 0.95] {
                let o = PlayerObservation {
                    frame: 0,
                    x: 0.0,
                    y: 0.0,
                    area: 0.0,
                    eccentricity: ecc,
                    orientation,
                };
                let s = quantize_pose(&o);
                assert!(s < POSE_SYMBOLS);
                seen.insert(s);
            }
        }
        assert_eq!(seen.len(), POSE_SYMBOLS);
    }
}
