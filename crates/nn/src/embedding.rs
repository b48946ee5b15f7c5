//! A mean-pooled embedding layer for token-id inputs.
//!
//! Maps `[batch, seq_len]` token ids (stored as `f32`, like
//! [`crate::lstm::LstmLm`]) to `[batch, embed_dim]` by averaging the token
//! embeddings — the classic bag-of-embeddings encoder for lightweight text
//! classification, composable with [`crate::layers::Dense`] inside a
//! [`crate::model::Sequential`].

use crate::layer::{Layer, Mode};
use crate::param::Param;
use fedat_tensor::Tensor;
use rand::Rng;

/// Mean-pooled embedding: `y = mean_t E[x_t]`.
pub struct Embedding {
    table: Param,
    vocab: usize,
    dim: usize,
    cached_tokens: Option<Vec<Vec<usize>>>,
}

impl Embedding {
    /// New embedding table of `vocab × dim`, N(0, 0.1) initialized.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, vocab: usize, dim: usize) -> Self {
        Embedding {
            table: Param::new(Tensor::randn(rng, &[vocab, dim], 0.0, 0.1)),
            vocab,
            dim,
            cached_tokens: None,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Layer for Embedding {
    fn forward(&mut self, input: Tensor, mode: Mode) -> Tensor {
        let (n, t) = input.shape().as_matrix();
        assert!(t > 0, "embedding needs at least one token per row");
        let mut out = Tensor::zeros(&[n, self.dim]);
        let mut tokens: Vec<Vec<usize>> = Vec::with_capacity(n);
        for r in 0..n {
            let ids: Vec<usize> = input
                .row(r)
                .iter()
                .map(|&v| {
                    let id = v as usize;
                    assert!(
                        v >= 0.0 && id < self.vocab,
                        "token id {v} out of range for vocab {}",
                        self.vocab
                    );
                    id
                })
                .collect();
            let row = out.row_mut(r);
            for &id in &ids {
                let emb = &self.table.value.data()[id * self.dim..(id + 1) * self.dim];
                for (o, &e) in row.iter_mut().zip(emb.iter()) {
                    *o += e / t as f32;
                }
            }
            tokens.push(ids);
        }
        if mode == Mode::Train {
            self.cached_tokens = Some(tokens);
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let tokens = self
            .cached_tokens
            .take()
            .expect("Embedding::backward without Train forward");
        let n = tokens.len();
        let t = tokens[0].len();
        for (r, ids) in tokens.iter().enumerate() {
            let g = grad_out.row(r);
            for &id in ids {
                let emb_grad = &mut self.table.grad.data_mut()[id * self.dim..(id + 1) * self.dim];
                for (eg, &gv) in emb_grad.iter_mut().zip(g.iter()) {
                    *eg += gv / t as f32;
                }
            }
        }
        // Token ids are not differentiable; return a zero gradient of the
        // input shape to keep the pipeline contract.
        Tensor::zeros(&[n, t])
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::model::{Model, Sequential};
    use crate::optim::Adam;
    use fedat_tensor::rng::rng_for;

    #[test]
    fn forward_is_mean_of_token_embeddings() {
        let mut rng = rng_for(1, 1);
        let mut e = Embedding::new(&mut rng, 5, 3);
        // Row of two identical tokens: output = that token's embedding.
        let x = Tensor::from_vec(vec![2.0, 2.0], &[1, 2]);
        let y = e.forward(x, Mode::Eval);
        let emb: Vec<f32> = e.table.value.data()[6..9].to_vec();
        for (a, b) in y.data().iter().zip(emb.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradcheck_on_table() {
        let mut rng = rng_for(2, 1);
        let mut e = Embedding::new(&mut rng, 4, 3);
        let x = Tensor::from_vec(vec![0.0, 1.0, 3.0, 3.0], &[2, 2]);
        // Loss = sum of outputs.
        let y = e.forward(x.clone(), Mode::Train);
        e.backward(Tensor::ones(y.dims()));
        let eps = 1e-3f32;
        for wi in [0usize, 4, 9, 11] {
            let orig = e.table.value.data()[wi];
            e.table.value.data_mut()[wi] = orig + eps;
            let lp = e.forward(x.clone(), Mode::Eval).sum();
            e.table.value.data_mut()[wi] = orig - eps;
            let lm = e.forward(x.clone(), Mode::Eval).sum();
            e.table.value.data_mut()[wi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = e.table.grad.data()[wi];
            assert!((num - ana).abs() < 1e-2, "table[{wi}]: {num} vs {ana}");
        }
    }

    #[test]
    fn bag_of_embeddings_classifier_learns() {
        // Sequences dominated by token 0 are class 0; by token 5, class 1.
        let mut rng = rng_for(3, 1);
        let mut model = Sequential::new(vec![
            Box::new(Embedding::new(&mut rng, 6, 8)),
            Box::new(Dense::new(&mut rng, 8, 2)),
        ]);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        use rand::RngExt;
        for i in 0..40 {
            let class = i % 2;
            for _ in 0..4 {
                let dominant = if class == 0 { 0.0 } else { 5.0 };
                if rng.random::<f32>() < 0.8 {
                    xs.push(dominant);
                } else {
                    xs.push(rng.random_range(1..5) as f32);
                }
            }
            ys.push(class as u32);
        }
        let x = Tensor::from_vec(xs, &[40, 4]);
        let mut opt = Adam::new(0.05);
        let before = model.evaluate(&x, &ys);
        for _ in 0..60 {
            model.train_batch(&x, &ys, &mut opt, None);
        }
        let after = model.evaluate(&x, &ys);
        assert!(
            after.accuracy > 0.9,
            "accuracy {} too low (was {})",
            after.accuracy,
            before.accuracy
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_token_rejected() {
        let mut rng = rng_for(4, 1);
        let mut e = Embedding::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![7.0], &[1, 1]);
        let _ = e.forward(x, Mode::Eval);
    }
}
