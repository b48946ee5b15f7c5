//! Ready-made model builders matching the architectures of paper §6, plus
//! [`ModelSpec`] — a cheap, copyable description that rebuilds a model
//! anywhere (each simulated client constructs its own instance from the
//! spec and loads the current weights).

use crate::layers::{Conv2d, Dense, MaxPool2d, Relu};
use crate::lstm::LstmLm;
use crate::model::{Model, Sequential};
use fedat_tensor::conv::Conv2dSpec;
use fedat_tensor::rng::{rng_for, tags};

/// A buildable model architecture.
///
/// Specs are `Clone + Send + Sync`, so the simulator can hand one to every
/// worker thread; [`ModelSpec::build`] is deterministic in `seed`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelSpec {
    /// Multinomial logistic regression (`input → classes`), the convex
    /// objective used for Sentiment140.
    Logistic {
        /// Input feature count.
        input: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Multi-layer perceptron with ReLU activations.
    Mlp {
        /// Input feature count.
        input: usize,
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Number of classes.
        classes: usize,
    },
    /// Two-conv-block CNN for small synthetic images
    /// (`conv k3 → relu → pool2 → conv k3 → relu → pool2 → fc → relu → fc`).
    CnnLite {
        /// Input channels.
        channels: usize,
        /// Input height (must be divisible by 4).
        height: usize,
        /// Input width (must be divisible by 4).
        width: usize,
        /// Number of classes.
        classes: usize,
    },
    /// The paper's CIFAR CNN shape: three conv layers with 32/64/64 filters
    /// followed by dense 64 → classes (§6 *Models*). Needs height and width
    /// divisible by 8.
    CnnPaper {
        /// Input channels.
        channels: usize,
        /// Input height (must be divisible by 8).
        height: usize,
        /// Input width (must be divisible by 8).
        width: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Embedding + LSTM + dense language model (the Reddit model).
    LstmLm {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        embed: usize,
        /// LSTM hidden width.
        hidden: usize,
    },
}

impl ModelSpec {
    /// Builds a freshly initialized model; identical `(spec, seed)` pairs
    /// produce identical weights.
    ///
    /// No layer in this crate holds non-parameter state, so `set_weights`
    /// fully resets a cached model; `fedat-core`'s `resident_optimizer`
    /// test checks that for every family.
    pub fn build(&self, seed: u64) -> Box<dyn Model> {
        let mut rng = rng_for(seed, tags::INIT);
        match self {
            ModelSpec::Logistic { input, classes } => Box::new(Sequential::new(vec![Box::new(
                Dense::new(&mut rng, *input, *classes),
            )])),
            ModelSpec::Mlp {
                input,
                hidden,
                classes,
            } => {
                let mut layers: Vec<Box<dyn crate::layer::Layer>> = Vec::new();
                let mut dim = *input;
                for &h in hidden {
                    layers.push(Box::new(Dense::new(&mut rng, dim, h)));
                    layers.push(Box::new(Relu::new()));
                    dim = h;
                }
                layers.push(Box::new(Dense::new(&mut rng, dim, *classes)));
                Box::new(Sequential::new(layers))
            }
            ModelSpec::CnnLite {
                channels,
                height,
                width,
                classes,
            } => {
                assert!(
                    height % 4 == 0 && width % 4 == 0,
                    "CnnLite needs H,W divisible by 4, got {height}×{width}"
                );
                let (c, h, w) = (*channels, *height, *width);
                let spec1 = Conv2dSpec {
                    in_channels: c,
                    out_channels: 16,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let spec2 = Conv2dSpec {
                    in_channels: 16,
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let flat = 32 * (h / 4) * (w / 4);
                Box::new(Sequential::new(vec![
                    Box::new(Conv2d::new(&mut rng, spec1, h, w)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(16, h, w, 2)),
                    Box::new(Conv2d::new(&mut rng, spec2, h / 2, w / 2)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(32, h / 2, w / 2, 2)),
                    Box::new(Dense::new(&mut rng, flat, 64)),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(&mut rng, 64, *classes)),
                ]))
            }
            ModelSpec::CnnPaper {
                channels,
                height,
                width,
                classes,
            } => {
                assert!(
                    height % 8 == 0 && width % 8 == 0,
                    "CnnPaper needs H,W divisible by 8, got {height}×{width}"
                );
                let (c, h, w) = (*channels, *height, *width);
                let s1 = Conv2dSpec {
                    in_channels: c,
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let s2 = Conv2dSpec {
                    in_channels: 32,
                    out_channels: 64,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let s3 = Conv2dSpec {
                    in_channels: 64,
                    out_channels: 64,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                };
                let flat = 64 * (h / 8) * (w / 8);
                Box::new(Sequential::new(vec![
                    Box::new(Conv2d::new(&mut rng, s1, h, w)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(32, h, w, 2)),
                    Box::new(Conv2d::new(&mut rng, s2, h / 2, w / 2)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(64, h / 2, w / 2, 2)),
                    Box::new(Conv2d::new(&mut rng, s3, h / 4, w / 4)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(64, h / 4, w / 4, 2)),
                    Box::new(Dense::new(&mut rng, flat, 64)),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(&mut rng, 64, *classes)),
                ]))
            }
            ModelSpec::LstmLm {
                vocab,
                embed,
                hidden,
            } => Box::new(LstmLm::new(&mut rng, *vocab, *embed, *hidden)),
        }
    }

    /// Scalar weight count of the built model (builds one to count; cached
    /// by callers that care).
    pub fn num_params(&self) -> usize {
        self.build(0).num_params()
    }
}

/// Maximum cached models per thread (one per distinct architecture a
/// worker touches; the harness runs a handful of tasks per thread).
const MODEL_CACHE_CAP: usize = 4;

thread_local! {
    static MODEL_CACHE: std::cell::RefCell<Vec<(ModelSpec, Box<dyn Model>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-cached model instance for `spec`, building one
/// (seeded with `seed`) on first use per thread. The single cache backs
/// both the training hot path (`fedat-core::local`) and the pooled
/// evaluators, so the reuse policy cannot drift between them.
///
/// Reuse is behavior-neutral as long as the caller overwrites the weights
/// via `set_weights` before inference or training — none of the spec-built
/// architectures carry non-parameter state across batches, the invariant
/// documented on [`ModelSpec::build`] — so which thread (and thus which
/// cached instance) runs `f` cannot affect results.
///
/// The model is taken out for the closure and put back at the recent end
/// after it, so the cache stays in use order and a full one evicts its
/// least recently used entry. If `f` panics the model is dropped with the
/// unwind: a half-stepped model never re-enters the cache.
pub fn with_cached_model<R>(spec: &ModelSpec, seed: u64, f: impl FnOnce(&mut dyn Model) -> R) -> R {
    let hit = MODEL_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        // Order-preserving: slot 0 stays the least recently used. A hit
        // keeps its key, so a warm call clones no spec.
        let i = cache.iter().position(|(s, _)| s == spec)?;
        Some(cache.remove(i))
    });
    // A miss builds outside the borrow: the build's Gaussian fills join
    // pool jobs, and a joining thread may run a queued job that uses this
    // cache.
    let (key, mut model) = hit.unwrap_or_else(|| (spec.clone(), spec.build(seed)));
    let result = f(model.as_mut());
    MODEL_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= MODEL_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, model));
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use fedat_tensor::Tensor;

    #[test]
    fn logistic_param_count() {
        let spec = ModelSpec::Logistic {
            input: 20,
            classes: 3,
        };
        assert_eq!(spec.num_params(), 20 * 3 + 3);
    }

    #[test]
    fn mlp_param_count() {
        let spec = ModelSpec::Mlp {
            input: 10,
            hidden: vec![16, 8],
            classes: 4,
        };
        let expected = 10 * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4;
        assert_eq!(spec.num_params(), expected);
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let spec = ModelSpec::Mlp {
            input: 6,
            hidden: vec![5],
            classes: 2,
        };
        let a = spec.build(42).weights();
        let b = spec.build(42).weights();
        let c = spec.build(43).weights();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cnn_lite_forward_shape() {
        let spec = ModelSpec::CnnLite {
            channels: 3,
            height: 8,
            width: 8,
            classes: 10,
        };
        let mut m = spec.build(1);
        let x = Tensor::zeros(&[2, 3 * 8 * 8]);
        let logits = m.logits(&x, Mode::Eval);
        assert_eq!(logits.dims(), &[2, 10]);
    }

    #[test]
    fn cnn_paper_forward_shape() {
        let spec = ModelSpec::CnnPaper {
            channels: 3,
            height: 16,
            width: 16,
            classes: 10,
        };
        let mut m = spec.build(1);
        let x = Tensor::zeros(&[1, 3 * 16 * 16]);
        let logits = m.logits(&x, Mode::Eval);
        assert_eq!(logits.dims(), &[1, 10]);
        // 3 conv layers + 2 dense → 8 weight tensors (w+b each is 2) = 10 params.
        assert!(
            m.num_params() > 50_000,
            "paper CNN should be reasonably sized"
        );
    }

    #[test]
    fn lstm_spec_builds() {
        let spec = ModelSpec::LstmLm {
            vocab: 20,
            embed: 8,
            hidden: 12,
        };
        let mut m = spec.build(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        assert_eq!(m.logits(&x, Mode::Eval).dims(), &[4, 20]);
    }

    #[test]
    fn model_cache_evicts_the_least_recently_used() {
        let spec = |input| ModelSpec::Logistic { input, classes: 2 };
        let cached = || -> Vec<ModelSpec> {
            MODEL_CACHE.with(|c| c.borrow().iter().map(|(s, _)| s.clone()).collect())
        };
        for input in 1..=4 {
            with_cached_model(&spec(input), 0, |_| ());
        }
        // A hit moves to the recent end without disturbing the others …
        with_cached_model(&spec(1), 0, |_| ());
        assert_eq!(cached(), [spec(2), spec(3), spec(4), spec(1)]);
        // … so a fifth architecture evicts 2, not the one just before it.
        with_cached_model(&spec(5), 0, |_| ());
        assert_eq!(cached(), [spec(3), spec(4), spec(1), spec(5)]);
    }
}
