//! The contract between a model and its optimizer: gradients are zero at
//! rest. `Optimizer::step` consumes what backward accumulated and leaves
//! `+0.0`; `reset` makes a used optimizer a fresh one, bit for bit; and a
//! model whose gradients were dirtied behind `train_batch`'s back clears
//! them itself.

use fedat_nn::layer::Mode;
use fedat_nn::layers::{Dense, Relu};
use fedat_nn::optim::{Adam, Optimizer, ProxTerm};
use fedat_nn::{Model, Param, Sequential};
use fedat_tensor::rng::rng_for;
use fedat_tensor::Tensor;

fn param_with_grad(values: &[f32], grads: &[f32]) -> Param {
    let mut p = Param::new(Tensor::from_vec(values.to_vec(), &[values.len()]));
    p.grad = Tensor::from_vec(grads.to_vec(), &[grads.len()]);
    p
}

#[test]
fn step_consumes_the_gradient() {
    let prox = ProxTerm::new(0.4, vec![0.0, 0.0]);
    let mut opt = Adam::new(0.01);
    for prox in [None, Some(&prox)] {
        let mut p = param_with_grad(&[1.0, 2.0], &[0.5, -0.5]);
        opt.step(&mut [&mut p], prox);
        assert!(p.grad.data().iter().all(|g| g.to_bits() == 0));
    }
}

#[test]
fn reset_optimizer_is_a_fresh_one_bitwise() {
    // A reset optimizer's buffers hold a previous life's moments — here of
    // a model with other shapes — and must behave as zeros.
    let mut used = Adam::new(0.01);
    let mut other = [
        param_with_grad(&[1.0; 5], &[f32::NAN, 3.0, -2.0, 0.5, 9.0]),
        param_with_grad(&[1.0], &[4.0]),
    ];
    let [a, b] = &mut other;
    used.step(&mut [a, b], None);
    used.reset();
    let mut new = Adam::new(0.01);
    let prox = ProxTerm::new(0.4, vec![0.5, -0.5, 0.25]);
    let mut p = param_with_grad(&[1.0, -2.0, 0.5], &[0.0; 3]);
    let mut q = p.clone();
    for step in 0..3 {
        for (opt, param) in [(&mut used, &mut p), (&mut new, &mut q)] {
            let g = [0.3 - step as f32, -0.0, 1e-20];
            param.grad.data_mut().copy_from_slice(&g);
            opt.step(&mut [param], Some(&prox));
        }
        let bits = |p: &Param| -> Vec<u32> { p.value.data().iter().map(|w| w.to_bits()).collect() };
        assert_eq!(bits(&p), bits(&q), "step {step}");
    }
}

#[test]
fn train_batch_clears_gradients_an_outside_backward_left() {
    let mlp = || {
        let mut rng = rng_for(5, 3);
        Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 8)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 8, 3)),
        ])
    };
    let mut rng = rng_for(9, 1);
    let x = Tensor::randn(&mut rng, &[8, 4], 0.0, 1.0);
    let y: Vec<u32> = (0..8).map(|i| (i % 3) as u32).collect();
    let (mut dirty, mut clean) = (mlp(), mlp());
    let out = dirty.forward(&x, Mode::Train);
    dirty.backward(Tensor::ones(out.dims())).recycle();
    let (mut opt_a, mut opt_b) = (Adam::new(0.1), Adam::new(0.1));
    for _ in 0..2 {
        dirty.train_batch(&x, &y, &mut opt_a, None);
        clean.train_batch(&x, &y, &mut opt_b, None);
        let bits =
            |m: &Sequential| -> Vec<u32> { m.weights().iter().map(|w| w.to_bits()).collect() };
        assert_eq!(bits(&dirty), bits(&clean));
    }
}
