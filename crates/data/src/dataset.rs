//! The labelled dataset container.

use fedat_tensor::rng::shuffle;
use fedat_tensor::Tensor;
use rand::Rng;

/// A labelled dataset: a `[rows, features]` tensor plus integer targets.
///
/// For classification `targets_per_row == 1`; for language modelling each
/// row is a token sequence and `targets_per_row == seq_len` (one next-token
/// target per position).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Features, one sample (or sequence) per row.
    pub x: Tensor,
    /// Targets in row order; `rows · targets_per_row` entries.
    pub y: Vec<u32>,
    /// Number of distinct classes (or vocabulary size for LM tasks).
    pub classes: usize,
    /// Targets per feature row (1 for classification).
    pub targets_per_row: usize,
}

impl Dataset {
    /// Builds a classification dataset (`targets_per_row = 1`).
    ///
    /// # Panics
    /// Panics if row/target counts disagree or a label is out of range.
    pub fn new(x: Tensor, y: Vec<u32>, classes: usize) -> Self {
        Self::with_stride(x, y, classes, 1)
    }

    /// Builds a dataset with `targets_per_row` targets per row.
    pub fn with_stride(x: Tensor, y: Vec<u32>, classes: usize, targets_per_row: usize) -> Self {
        let (rows, _) = x.shape().as_matrix();
        assert!(targets_per_row > 0, "targets_per_row must be positive");
        assert_eq!(y.len(), rows * targets_per_row, "target count mismatch");
        assert!(
            y.iter().all(|&t| (t as usize) < classes),
            "label out of range for {classes} classes"
        );
        Dataset {
            x,
            y,
            classes,
            targets_per_row,
        }
    }

    /// Number of feature rows.
    pub fn len(&self) -> usize {
        self.x.shape().as_matrix().0
    }

    /// True if the dataset has no rows (never constructible; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature count per row.
    pub fn features(&self) -> usize {
        self.x.shape().as_matrix().1
    }

    /// A new dataset containing the given rows (in the given order).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let cols = self.features();
        let tpr = self.targets_per_row;
        let mut xs = Vec::with_capacity(indices.len() * cols);
        let mut ys = Vec::with_capacity(indices.len() * tpr);
        for &i in indices {
            xs.extend_from_slice(self.x.row(i));
            ys.extend_from_slice(&self.y[i * tpr..(i + 1) * tpr]);
        }
        Dataset {
            x: Tensor::from_vec(xs, &[indices.len(), cols]),
            y: ys,
            classes: self.classes,
            targets_per_row: tpr,
        }
    }

    /// Splits into `(first, second)` with `frac` of rows (rounded down, at
    /// least one in each side) going to `first`, after a seeded shuffle.
    pub fn split<R: Rng + ?Sized>(&self, frac: f64, rng: &mut R) -> (Dataset, Dataset) {
        let n = self.len();
        assert!(n >= 2, "cannot split a dataset with {n} rows");
        let mut idx: Vec<usize> = (0..n).collect();
        shuffle(rng, &mut idx);
        let cut = ((n as f64 * frac) as usize).clamp(1, n - 1);
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Concatenates datasets with identical schema.
    ///
    /// # Panics
    /// Panics if schemas differ or the list is empty.
    pub fn concat(parts: &[&Dataset]) -> Dataset {
        assert!(!parts.is_empty(), "concat of zero datasets");
        let first = parts[0];
        let cols = first.features();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for p in parts {
            assert_eq!(p.features(), cols, "feature mismatch in concat");
            assert_eq!(p.classes, first.classes, "class-count mismatch in concat");
            assert_eq!(
                p.targets_per_row, first.targets_per_row,
                "stride mismatch in concat"
            );
            xs.extend_from_slice(p.x.data());
            ys.extend_from_slice(&p.y);
        }
        Dataset {
            x: Tensor::from_vec(xs, &[ys.len() / first.targets_per_row, cols]),
            y: ys,
            classes: first.classes,
            targets_per_row: first.targets_per_row,
        }
    }

    /// Histogram of labels (length `classes`).
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for &t in &self.y {
            h[t as usize] += 1;
        }
        h
    }

    /// Number of distinct labels present.
    pub fn distinct_labels(&self) -> usize {
        self.label_histogram().iter().filter(|&&c| c > 0).count()
    }

    /// One epoch's row order: every row index, shuffled with `rng`, written
    /// into `order` (cleared first). Chunked into consecutive batches of
    /// `batch_size` rows (the last may be short) it is the epoch's
    /// mini-batch schedule; the paper fixes a pseudo-random schedule per
    /// client so repeated selections are comparable across FL methods (§6).
    /// A caller that keeps `order` between epochs allocates nothing.
    pub fn shuffled_rows_into<R: Rng + ?Sized>(&self, rng: &mut R, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        shuffle(rng, order);
    }

    /// [`Dataset::shuffled_rows_into`] chunked into owned batches of
    /// `batch_size` rows.
    pub fn batch_schedule<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order = Vec::new();
        self.shuffled_rows_into(rng, &mut order);
        order.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }

    /// Materializes a batch without allocating: the feature tensor comes
    /// from the thread-local scratch arena (recycle it after the step) and
    /// the targets are written into the caller's reusable buffer.
    pub fn gather_batch_into(&self, indices: &[usize], y_out: &mut Vec<u32>) -> Tensor {
        let cols = self.features();
        let tpr = self.targets_per_row;
        // Every element is about to be written: no zero-fill first.
        let mut xs = fedat_tensor::scratch::take_empty(indices.len() * cols);
        y_out.clear();
        y_out.reserve(indices.len() * tpr);
        for &i in indices {
            xs.extend_from_slice(self.x.row(i));
            // Pushed, not `extend_from_slice`d: one label is a 4-byte store,
            // not a `memcpy` call.
            for &t in &self.y[i * tpr..(i + 1) * tpr] {
                y_out.push(t);
            }
        }
        Tensor::from_vec(xs, &[indices.len(), cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_tensor::rng::rng_for;

    fn toy(n: usize) -> Dataset {
        let x = Tensor::from_vec((0..n * 2).map(|v| v as f32).collect(), &[n, 2]);
        let y = (0..n as u32).map(|v| v % 3).collect();
        Dataset::new(x, y, 3)
    }

    #[test]
    fn subset_preserves_rows() {
        let d = toy(10);
        let s = d.subset(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.x.row(0), d.x.row(3));
        assert_eq!(s.x.row(1), d.x.row(7));
        assert_eq!(s.y, vec![d.y[3], d.y[7]]);
    }

    #[test]
    fn split_partitions_rows() {
        let d = toy(20);
        let mut rng = rng_for(1, 1);
        let (a, b) = d.split(0.8, &mut rng);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 4);
        // Every original row appears exactly once across the two halves.
        let mut seen: Vec<f32> =
            a.x.data()
                .chunks(2)
                .chain(b.x.data().chunks(2))
                .map(|r| r[0])
                .collect();
        seen.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let expected: Vec<f32> = (0..20).map(|i| (i * 2) as f32).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn concat_restores_total() {
        let d = toy(9);
        let a = d.subset(&[0, 1, 2]);
        let b = d.subset(&[3, 4, 5, 6, 7, 8]);
        let c = Dataset::concat(&[&a, &b]);
        assert_eq!(c.len(), 9);
        assert_eq!(c.x.data(), d.x.data());
    }

    #[test]
    fn histogram_counts_labels() {
        let d = toy(9);
        assert_eq!(d.label_histogram(), vec![3, 3, 3]);
        assert_eq!(d.distinct_labels(), 3);
    }

    #[test]
    fn batch_schedule_covers_all_rows_once() {
        let d = toy(11);
        let mut rng = rng_for(2, 2);
        let sched = d.batch_schedule(4, &mut rng);
        assert_eq!(sched.len(), 3);
        assert_eq!(sched[2].len(), 3);
        let mut all: Vec<usize> = sched.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn batch_schedule_chunks_the_shuffled_row_order() {
        let d = toy(11);
        let mut order = vec![99; 3];
        d.shuffled_rows_into(&mut rng_for(2, 2), &mut order);
        let sched = d.batch_schedule(4, &mut rng_for(2, 2));
        assert_eq!(sched.concat(), order);
    }

    #[test]
    fn batch_schedule_is_seed_deterministic() {
        let d = toy(16);
        let s1 = d.batch_schedule(4, &mut rng_for(3, 3));
        let s2 = d.batch_schedule(4, &mut rng_for(3, 3));
        assert_eq!(s1, s2);
    }

    #[test]
    fn stride_datasets_validate() {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]);
        let d = Dataset::with_stride(x, vec![1, 2, 3, 0], 4, 2);
        assert_eq!(d.len(), 2);
        let s = d.subset(&[1]);
        assert_eq!(s.y, vec![3, 0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let x = Tensor::from_vec(vec![0.0], &[1, 1]);
        let _ = Dataset::new(x, vec![5], 3);
    }
}
