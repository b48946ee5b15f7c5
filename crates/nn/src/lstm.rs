//! An embedding + LSTM + projection language model with manual truncated
//! BPTT, used for the Reddit next-token experiment (paper Fig. 8).
//!
//! The paper's Reddit model is "an embedding layer … followed by an LSTM
//! layer … and a dense layer" (§6 *Models*); [`LstmLm`] is the same shape
//! scaled to the synthetic token streams of `fedat-data`.

use crate::layer::Mode;
use crate::loss::softmax_cross_entropy_grad;
use crate::model::Model;
use crate::optim::{Optimizer, ProxTerm};
use crate::param::{Param, Params};
use fedat_tensor::Tensor;
use rand::Rng;

/// Numerically-stable scalar sigmoid, the LSTM's gate activation.
#[inline]
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// LSTM language model: `tokens → embedding → LSTM → logits`.
///
/// * Input: `[batch, seq_len]` tensor whose entries are token ids stored as
///   `f32` (exact for vocabularies < 2²⁴).
/// * Output: `[batch · seq_len, vocab]` logits, row `n·T + t` holding the
///   prediction for position `t` of sample `n`. Targets are the next tokens
///   in the same layout.
pub struct LstmLm {
    vocab: usize,
    embed_dim: usize,
    hidden: usize,
    /// Embedding table `[vocab, embed_dim]`.
    embed: Param,
    /// Input-to-gates weights `[embed_dim, 4·hidden]`, gate order `i,f,g,o`.
    w_ih: Param,
    /// Hidden-to-gates weights `[hidden, 4·hidden]`.
    w_hh: Param,
    /// Gate bias `[4·hidden]` (forget-gate slice initialized to 1).
    b: Param,
    /// Output projection `[hidden, vocab]`.
    w_out: Param,
    /// Output bias `[vocab]`.
    b_out: Param,
    cache: Option<Cache>,
    /// Every gradient is `+0.0` (see `Sequential`'s field of this name).
    grads_clean: bool,
}

struct StepCache {
    tokens: Vec<usize>,
    x_emb: Tensor,
    i: Tensor,
    f: Tensor,
    g: Tensor,
    o: Tensor,
    tanh_c: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    h: Tensor,
}

struct Cache {
    steps: Vec<StepCache>,
    batch: usize,
}

impl LstmLm {
    /// Builds a randomly initialized model.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        vocab: usize,
        embed_dim: usize,
        hidden: usize,
    ) -> Self {
        let mut b = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias = 1: the standard trick so early training does not
        // immediately flush the cell state.
        for j in hidden..2 * hidden {
            b.data_mut()[j] = 1.0;
        }
        LstmLm {
            vocab,
            embed_dim,
            hidden,
            embed: Param::new(Tensor::randn(rng, &[vocab, embed_dim], 0.0, 0.1)),
            w_ih: Param::new(Tensor::kaiming(rng, &[embed_dim, 4 * hidden], embed_dim)),
            w_hh: Param::new(Tensor::kaiming(rng, &[hidden, 4 * hidden], hidden)),
            b: Param::new(b),
            w_out: Param::new(Tensor::kaiming(rng, &[hidden, vocab], hidden)),
            b_out: Param::new(Tensor::zeros(&[vocab])),
            cache: None,
            grads_clean: true,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    fn params(&self) -> [&Param; 6] {
        [
            &self.embed,
            &self.w_ih,
            &self.w_hh,
            &self.b,
            &self.w_out,
            &self.b_out,
        ]
    }

    fn params_mut(&mut self) -> [&mut Param; 6] {
        [
            &mut self.embed,
            &mut self.w_ih,
            &mut self.w_hh,
            &mut self.b,
            &mut self.w_out,
            &mut self.b_out,
        ]
    }

    fn zero_grad(&mut self) {
        self.visit_mut(&mut Param::zero_grad);
    }

    /// Forward pass over `[batch, seq_len]` token ids.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (n, t_len) = x.shape().as_matrix();
        let h_dim = self.hidden;
        let mut h = Tensor::zeros(&[n, h_dim]);
        let mut c = Tensor::zeros(&[n, h_dim]);
        let mut logits = Tensor::zeros(&[n * t_len, self.vocab]);
        let mut steps = Vec::with_capacity(if mode == Mode::Train { t_len } else { 0 });

        for t in 0..t_len {
            // Gather token embeddings.
            let tokens: Vec<usize> = (0..n)
                .map(|r| {
                    let id = x.row(r)[t];
                    debug_assert!(
                        id >= 0.0 && (id as usize) < self.vocab,
                        "token id {id} out of range"
                    );
                    id as usize
                })
                .collect();
            let mut x_emb = Tensor::zeros(&[n, self.embed_dim]);
            for (r, &tok) in tokens.iter().enumerate() {
                x_emb.row_mut(r).copy_from_slice(
                    &self.embed.value.data()[tok * self.embed_dim..(tok + 1) * self.embed_dim],
                );
            }

            // Pre-activations: a = x·W_ih + h·W_hh + b, shape [n, 4H].
            let mut a = x_emb.matmul(&self.w_ih.value);
            let hh = h.matmul(&self.w_hh.value);
            a.zip_inplace(&hh, |p, q| p + q);
            a.add_row_bias(&self.b.value);

            // Split gates (i, f, g, o) and advance the cell.
            let mut gi = Tensor::zeros(&[n, h_dim]);
            let mut gf = Tensor::zeros(&[n, h_dim]);
            let mut gg = Tensor::zeros(&[n, h_dim]);
            let mut go = Tensor::zeros(&[n, h_dim]);
            for r in 0..n {
                let arow = a.row(r);
                for j in 0..h_dim {
                    gi.row_mut(r)[j] = sigmoid(arow[j]);
                    gf.row_mut(r)[j] = sigmoid(arow[h_dim + j]);
                    gg.row_mut(r)[j] = arow[2 * h_dim + j].tanh();
                    go.row_mut(r)[j] = sigmoid(arow[3 * h_dim + j]);
                }
            }
            let c_prev = c.clone();
            let h_prev = h.clone();
            let mut c_new = Tensor::zeros(&[n, h_dim]);
            for idx in 0..n * h_dim {
                c_new.data_mut()[idx] =
                    gf.data()[idx] * c_prev.data()[idx] + gi.data()[idx] * gg.data()[idx];
            }
            let tanh_c = c_new.map(f32::tanh);
            let mut h_new = Tensor::zeros(&[n, h_dim]);
            for idx in 0..n * h_dim {
                h_new.data_mut()[idx] = go.data()[idx] * tanh_c.data()[idx];
            }

            // Project to vocabulary logits; rows interleaved as n·T + t.
            let mut out_t = h_new.matmul(&self.w_out.value);
            out_t.add_row_bias(&self.b_out.value);
            for r in 0..n {
                logits.row_mut(r * t_len + t).copy_from_slice(out_t.row(r));
            }

            if mode == Mode::Train {
                steps.push(StepCache {
                    tokens,
                    x_emb,
                    i: gi,
                    f: gf,
                    g: gg,
                    o: go,
                    tanh_c,
                    h_prev,
                    c_prev,
                    h: h_new.clone(),
                });
            }
            h = h_new;
            c = c_new;
        }
        if mode == Mode::Train {
            self.cache = Some(Cache { steps, batch: n });
        }
        logits
    }

    /// Backward pass from `d_logits` (`[batch · seq_len, vocab]`).
    fn backward(&mut self, d_logits: &Tensor) {
        self.grads_clean = false;
        let cache = self
            .cache
            .take()
            .expect("LstmLm::backward without Train forward");
        let n = cache.batch;
        let t_len = cache.steps.len();
        let h_dim = self.hidden;

        let mut dh_next = Tensor::zeros(&[n, h_dim]);
        let mut dc_next = Tensor::zeros(&[n, h_dim]);

        for (t, step) in cache.steps.iter().enumerate().rev() {
            // Collect dy_t rows back into a contiguous [n, vocab] matrix.
            let mut dy = Tensor::zeros(&[n, self.vocab]);
            for r in 0..n {
                dy.row_mut(r).copy_from_slice(d_logits.row(r * t_len + t));
            }
            // Output projection gradients.
            let dwout = step.h.matmul_tn(&dy);
            self.w_out.grad.axpy_inplace(1.0, &dwout);
            self.b_out.grad.axpy_inplace(1.0, &dy.sum_rows());
            // dh = dy·W_outᵀ + carry from t+1.
            let mut dh = dy.matmul_nt(&self.w_out.value);
            dh.zip_inplace(&dh_next, |a, b| a + b);

            // Cell/gate gradients.
            let mut da = Tensor::zeros(&[n, 4 * h_dim]);
            let mut dc = Tensor::zeros(&[n, h_dim]);
            for idx in 0..n * h_dim {
                let o = step.o.data()[idx];
                let tc = step.tanh_c.data()[idx];
                let d_o = dh.data()[idx] * tc;
                let mut d_c = dh.data()[idx] * o * (1.0 - tc * tc) + dc_next.data()[idx];
                let i = step.i.data()[idx];
                let f = step.f.data()[idx];
                let g = step.g.data()[idx];
                let d_i = d_c * g;
                let d_f = d_c * step.c_prev.data()[idx];
                let d_g = d_c * i;
                d_c *= f; // becomes dc_next for t−1
                dc.data_mut()[idx] = d_c;
                let r = idx / h_dim;
                let j = idx % h_dim;
                let arow = da.row_mut(r);
                arow[j] = d_i * i * (1.0 - i);
                arow[h_dim + j] = d_f * f * (1.0 - f);
                arow[2 * h_dim + j] = d_g * (1.0 - g * g);
                arow[3 * h_dim + j] = d_o * o * (1.0 - o);
            }
            dc_next = dc;

            // Weight gradients.
            let dwih = step.x_emb.matmul_tn(&da);
            self.w_ih.grad.axpy_inplace(1.0, &dwih);
            let dwhh = step.h_prev.matmul_tn(&da);
            self.w_hh.grad.axpy_inplace(1.0, &dwhh);
            self.b.grad.axpy_inplace(1.0, &da.sum_rows());

            // Embedding gradients: scatter dx rows by token id.
            let dx = da.matmul_nt(&self.w_ih.value);
            for (r, &tok) in step.tokens.iter().enumerate() {
                let grad_row = &mut self.embed.grad.data_mut()
                    [tok * self.embed_dim..(tok + 1) * self.embed_dim];
                for (gv, &dv) in grad_row.iter_mut().zip(dx.row(r)) {
                    *gv += dv;
                }
            }
            // Hidden-state carry.
            dh_next = da.matmul_nt(&self.w_hh.value);
        }
    }
}

impl Model for LstmLm {
    fn logits(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward(x, mode)
    }

    fn train_batch(
        &mut self,
        x: &Tensor,
        y: &[u32],
        opt: &mut dyn Optimizer,
        prox: Option<&ProxTerm>,
    ) {
        if !std::mem::take(&mut self.grads_clean) {
            self.zero_grad();
        }
        let logits = self.forward(x, Mode::Train);
        let d_logits = softmax_cross_entropy_grad(&logits, y);
        logits.recycle();
        self.backward(&d_logits);
        d_logits.recycle();
        opt.step(self, prox);
        self.grads_clean = true;
    }

    fn num_params(&self) -> usize {
        self.scalar_count()
    }

    fn weights(&self) -> Vec<f32> {
        self.flatten()
    }

    fn set_weights(&mut self, flat: &[f32]) {
        self.load(flat);
    }
}

impl Params for LstmLm {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.params().into_iter().for_each(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.params_mut().into_iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use fedat_tensor::rng::rng_for;
    use rand::RngExt;

    fn tiny_lm(seed: u64) -> LstmLm {
        let mut rng = rng_for(seed, 11);
        LstmLm::new(&mut rng, 6, 3, 4)
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn logits_shape_is_positions_by_vocab() {
        let mut lm = tiny_lm(1);
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3]);
        let logits = lm.logits(&x, Mode::Eval);
        assert_eq!(logits.dims(), &[6, 6]);
    }

    #[test]
    fn weights_roundtrip() {
        let mut a = tiny_lm(1);
        let mut b = tiny_lm(2);
        let w = a.weights();
        assert_eq!(w.len(), a.num_params());
        assert_ne!(b.weights(), w);
        b.set_weights(&w);
        assert_eq!(b.weights(), w);
        // And the two models now agree on outputs.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        assert_eq!(
            a.logits(&x, Mode::Eval).data(),
            b.logits(&x, Mode::Eval).data()
        );
    }

    #[test]
    fn full_gradcheck_on_tiny_model() {
        let mut lm = tiny_lm(3);
        let x = Tensor::from_vec(vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0], &[2, 3]);
        let y = [2u32, 4, 1, 3, 5, 0];

        lm.zero_grad();
        let logits = lm.forward(&x, Mode::Train);
        let d_logits = softmax_cross_entropy_grad(&logits, &y);
        lm.backward(&d_logits);

        // Snapshot analytic gradients.
        let analytic: Vec<Vec<f32>> = lm.params().iter().map(|p| p.grad.data().to_vec()).collect();

        let loss_of = |lm: &mut LstmLm| -> f32 {
            let logits = lm.forward(&x, Mode::Eval);
            crate::loss::softmax_cross_entropy_loss(&logits, &y)
        };
        let eps = 1e-2f32;
        // Spot-check several coordinates in every parameter tensor.
        for (pi, probe) in [(0usize, 7usize), (1, 5), (2, 9), (3, 2), (4, 11), (5, 3)] {
            let orig = lm.params()[pi].value.data()[probe];
            lm.params_mut()[pi].value.data_mut()[probe] = orig + eps;
            let lp = loss_of(&mut lm);
            lm.params_mut()[pi].value.data_mut()[probe] = orig - eps;
            let lmm = loss_of(&mut lm);
            lm.params_mut()[pi].value.data_mut()[probe] = orig;
            let num = (lp - lmm) / (2.0 * eps);
            let ana = analytic[pi][probe];
            assert!(
                (num - ana).abs() < 5e-3 + 0.05 * num.abs().max(ana.abs()),
                "param {pi}[{probe}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn learns_a_deterministic_successor_function() {
        // Language: token k is always followed by (k+1) mod V. An LSTM must
        // drive the loss well below chance.
        let mut lm = tiny_lm(4);
        let v = 6usize;
        let mut rng = rng_for(5, 5);
        let (n, t) = (8, 5);
        let make_batch = |rng: &mut rand::rngs::StdRng| {
            let mut xs = Vec::with_capacity(n * t);
            let mut ys = Vec::with_capacity(n * t);
            for _ in 0..n {
                let start = rng.random_range(0..v);
                for p in 0..t {
                    let tok = (start + p) % v;
                    xs.push(tok as f32);
                    ys.push(((tok + 1) % v) as u32);
                }
            }
            (Tensor::from_vec(xs, &[n, t]), ys)
        };
        let mut opt = Adam::new(0.05);
        let (x0, y0) = make_batch(&mut rng);
        let before = lm.evaluate(&x0, &y0);
        for _ in 0..150 {
            let (x, y) = make_batch(&mut rng);
            lm.train_batch(&x, &y, &mut opt, None);
        }
        let after = lm.evaluate(&x0, &y0);
        assert!(
            after.loss < before.loss * 0.3,
            "LSTM failed to learn: {} → {}",
            before.loss,
            after.loss
        );
        assert!(after.accuracy > 0.9, "accuracy {} too low", after.accuracy);
    }
}
