//! The owned dense tensor type.

use crate::rng;
use crate::shape::Shape;
use rand::Rng;

/// An owned, row-major, dense `f32` tensor of rank ≤ 4.
///
/// `Tensor` deliberately has no view/stride machinery: the models in this
/// reproduction are small and the federated-learning hot paths operate on
/// whole weight matrices, so owned contiguous storage keeps every kernel
/// simple, cache-friendly, and safe.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from existing storage.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// A zero tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// A one tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A zero tensor with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor {
            data: vec![0.0; other.len()],
            shape: other.shape,
        }
    }

    /// A zero tensor whose storage comes from the thread-local scratch
    /// arena ([`crate::scratch`]). Numerically identical to
    /// [`Tensor::zeros`]; hand the storage back with [`Tensor::recycle`]
    /// when the value dies to keep hot loops allocation-free.
    pub fn zeros_scratch(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: crate::scratch::take_zeroed(shape.len()),
            shape,
        }
    }

    /// A copy of `self` whose storage comes from the scratch arena.
    pub fn clone_scratch(&self) -> Self {
        Tensor {
            data: crate::scratch::take_copy(&self.data),
            shape: self.shape,
        }
    }

    /// Consumes the tensor, returning its storage to the scratch arena.
    pub fn recycle(self) {
        crate::scratch::recycle(self.data);
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// I.i.d. normal entries with the given mean and std-dev.
    pub fn randn<R: Rng + ?Sized>(rng_: &mut R, dims: &[usize], mean: f32, std: f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = vec![0.0f32; shape.len()];
        rng::fill_normal(rng_, &mut data, mean, std);
        Tensor { data, shape }
    }

    /// Kaiming/He-style initialization for a weight matrix with `fan_in`
    /// inputs: normal with std `sqrt(2 / fan_in)`.
    pub fn kaiming<R: Rng + ?Sized>(rng_: &mut R, dims: &[usize], fan_in: usize) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(rng_, dims, 0.0, std)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: tensors have at least one element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read-only view of the storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Row `r` of a matrix-like tensor (rank collapsed as in
    /// [`Shape::as_matrix`]).
    pub fn row(&self, r: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a matrix-like tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &mut self.data[r * cols..(r + 1) * cols]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {:?}",
            self.data.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Matrix transpose of a rank-≤2 tensor.
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = vec![0.0f32; self.data.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    // ------------------------------------------------------------------
    // Elementwise maps (consuming and in-place)
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Elementwise combine with another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape,
        }
    }

    /// In-place elementwise combine.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    #[inline]
    pub(crate) fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    // ------------------------------------------------------------------
    // Scalar statistics
    // ------------------------------------------------------------------

    /// Sum of all elements (serial, fixed order — deterministic).
    pub fn sum(&self) -> f32 {
        // Kahan summation: cheap insurance against catastrophic cancellation
        // when summing long gradient vectors.
        let mut sum = 0.0f32;
        let mut c = 0.0f32;
        for &x in &self.data {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64 * x as f64) as f32)
            .sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{}, {}, … ; n={}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    #[test]
    fn from_vec_validates_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn rows_are_contiguous_slices() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rng_for(1, 1);
        let t = Tensor::randn(&mut rng, &[5, 7], 0.0, 1.0);
        let tt = t.transpose().transpose();
        assert_eq!(t.data(), tt.data());
        assert_eq!(t.dims(), tt.dims());
    }

    #[test]
    fn map_zip_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2.0, 4.0, 6.0]);
        let c = a.zip(&b, |x, y| y - x);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 3.0, 2.0], &[4]);
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.norm_sq(), 1.0 + 9.0 + 4.0);
    }

    #[test]
    fn randn_seeded_reproducibility() {
        let a = Tensor::randn(&mut rng_for(9, 9), &[4, 4], 0.0, 1.0);
        let b = Tensor::randn(&mut rng_for(9, 9), &[4, 4], 0.0, 1.0);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = rng_for(3, 3);
        let w = Tensor::kaiming(&mut rng, &[256, 256], 256);
        let std = (w.norm_sq() / w.len() as f32).sqrt();
        let expected = (2.0f32 / 256.0).sqrt();
        assert!(
            (std - expected).abs() < expected * 0.2,
            "std {std} vs {expected}"
        );
    }
}
