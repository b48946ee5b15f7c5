//! Property-based tests for the tensor kernels.

use fedat_tensor::ops::{argmax, axpy, weighted_sum_into};
use fedat_tensor::{ops, Tensor};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim)
        .prop_flat_map(|(r, c)| {
            (
                prop::collection::vec(-10.0f32..10.0, r * c),
                Just(r),
                Just(c),
            )
        })
        .prop_map(|(data, r, c)| Tensor::from_vec(data, &[r, c]))
}

/// The row softmax of a matrix, through the block routine.
fn softmax(t: &Tensor) -> Tensor {
    let mut s = t.clone();
    ops::softmax_block(s.data_mut(), t.dims()[1]);
    s
}

fn pair_mult(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-5.0f32..5.0, m * k),
            prop::collection::vec(-5.0f32..5.0, k * n),
        )
            .prop_map(move |(a, b)| (Tensor::from_vec(a, &[m, k]), Tensor::from_vec(b, &[k, n])))
    })
}

proptest! {
    #[test]
    fn matmul_identity_right((a, _) in pair_mult(8)) {
        let n = a.dims()[1];
        let c = a.matmul(&Tensor::eye(n));
        prop_assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in pair_mult(6), c_data in prop::collection::vec(-5.0f32..5.0, 36)) {
        let (k, n) = (b.dims()[0], b.dims()[1]);
        if c_data.len() < k * n { return Ok(()); }
        let c = Tensor::from_vec(c_data[..k * n].to_vec(), &[k, n]);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-3 + 1e-3 * x.abs().max(y.abs()));
        }
    }

    #[test]
    fn transpose_transposes_matmul((a, b) in pair_mult(6)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-3 + 1e-3 * x.abs().max(y.abs()));
        }
    }

    #[test]
    fn tn_and_nt_agree_with_explicit_transpose((a, b) in pair_mult(6)) {
        // a: [m,k], b: [k,n] → aᵀ is [k,m]; check matmul_tn(aᵀ-layout) path.
        let at = a.transpose();
        let got = at.matmul_tn(&b);
        let want = a.matmul(&b);
        for (x, y) in got.data().iter().zip(want.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-3 + 1e-3 * x.abs().max(y.abs()));
        }
        let bt = b.transpose();
        let got2 = a.matmul_nt(&bt);
        for (x, y) in got2.data().iter().zip(want.data().iter()) {
            prop_assert!((x - y).abs() <= 1e-3 + 1e-3 * x.abs().max(y.abs()));
        }
    }

    #[test]
    fn softmax_rows_always_normalized(t in small_matrix(10)) {
        let s = softmax(&t);
        for r in 0..t.dims()[0] {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_preserves_argmax(t in small_matrix(10)) {
        let s = softmax(&t);
        for r in 0..t.dims()[0] {
            prop_assert_eq!(argmax(t.row(r)), argmax(s.row(r)));
        }
    }

    #[test]
    fn axpy_then_inverse_axpy_is_identity(x in prop::collection::vec(-100.0f32..100.0, 1..64), alpha in -4.0f32..4.0) {
        let y0: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut y = y0.clone();
        axpy(alpha, &x, &mut y);
        axpy(-alpha, &x, &mut y);
        for (a, b) in y.iter().zip(y0.iter()) {
            prop_assert!((a - b).abs() <= 1e-3 + 1e-4 * b.abs());
        }
    }

    #[test]
    fn weighted_sum_of_identical_inputs_is_input(x in prop::collection::vec(-10.0f32..10.0, 1..64), parts in 1usize..6) {
        let inputs: Vec<&[f32]> = (0..parts).map(|_| x.as_slice()).collect();
        let weights = vec![1.0 / parts as f32; parts];
        let mut out = vec![0.0f32; x.len()];
        weighted_sum_into(&inputs, &weights, &mut out);
        for (a, b) in out.iter().zip(x.iter()) {
            prop_assert!((a - b).abs() <= 1e-4 + 1e-4 * b.abs());
        }
    }

    #[test]
    fn lerp_stays_in_segment(t in 0.0f32..1.0) {
        let mut a = vec![0.0f32, 10.0];
        ops::lerp_into(&mut a, &[10.0, 0.0], t);
        prop_assert!(a.iter().all(|&v| (0.0..=10.0).contains(&v)));
    }
}
