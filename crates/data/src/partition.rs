//! Partitioning a global dataset across federated clients.
//!
//! The paper's non-IID setting follows McMahan et al.: sort by label, slice
//! into shards, give each client `#classes` shards ([`Partitioner::Shard`]).
//! [`Partitioner::Dirichlet`] is the standard label-distribution skew used
//! for the FEMNIST-like natural heterogeneity.

use crate::dataset::Dataset;
use fedat_tensor::rng::{shuffle, standard_normal, uniform};
use rand::{Rng, RngExt};

/// A client-partitioning strategy.
#[derive(Clone, Debug, PartialEq)]
pub enum Partitioner {
    /// Shuffle uniformly and deal evenly.
    Iid,
    /// Label-sorted shards; each client receives `classes_per_client`
    /// shards, so it sees at most that many distinct labels.
    Shard {
        /// Approximate number of distinct classes per client.
        classes_per_client: usize,
    },
    /// For each class, split its samples across clients with proportions
    /// drawn from `Dirichlet(alpha)`. Smaller `alpha` = more skew.
    Dirichlet {
        /// Concentration parameter (> 0).
        alpha: f64,
    },
}

impl Partitioner {
    /// Splits `dataset` into `n_clients` disjoint client datasets covering
    /// every sample exactly once.
    ///
    /// # Panics
    /// Panics if `n_clients` is zero or exceeds the sample count.
    pub fn partition<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        n_clients: usize,
        rng: &mut R,
    ) -> Vec<Dataset> {
        assert!(n_clients > 0, "need at least one client");
        assert!(
            n_clients * 2 <= dataset.len(),
            "too many clients ({n_clients}) for {} samples",
            dataset.len()
        );
        let assignment = match self {
            Partitioner::Iid => iid_assignment(dataset.len(), n_clients, rng),
            Partitioner::Shard { classes_per_client } => {
                shard_assignment(dataset, n_clients, *classes_per_client, rng)
            }
            Partitioner::Dirichlet { alpha } => {
                dirichlet_assignment(dataset, n_clients, *alpha, rng)
            }
        };
        let mut balanced = assignment;
        rebalance_min_samples(&mut balanced, 2);
        balanced.iter().map(|idx| dataset.subset(idx)).collect()
    }
}

fn iid_assignment<R: Rng + ?Sized>(n: usize, clients: usize, rng: &mut R) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut idx);
    let base = n / clients;
    let extra = n % clients;
    let mut out = Vec::with_capacity(clients);
    let mut cursor = 0usize;
    for c in 0..clients {
        let take = base + usize::from(c < extra);
        out.push(idx[cursor..cursor + take].to_vec());
        cursor += take;
    }
    out
}

fn shard_assignment<R: Rng + ?Sized>(
    dataset: &Dataset,
    clients: usize,
    classes_per_client: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(classes_per_client >= 1, "classes_per_client must be ≥ 1");
    // Sort indices by label (stable), shuffling within each label so shard
    // contents are random.
    let mut by_label: Vec<Vec<usize>> = vec![Vec::new(); dataset.classes];
    for i in 0..dataset.len() {
        by_label[dataset.y[i * dataset.targets_per_row] as usize].push(i);
    }
    for bucket in by_label.iter_mut() {
        shuffle(rng, bucket);
    }
    let sorted: Vec<usize> = by_label.into_iter().flatten().collect();

    let num_shards = clients * classes_per_client;
    assert!(
        num_shards <= sorted.len(),
        "more shards ({num_shards}) than samples ({})",
        sorted.len()
    );
    let shard_size = sorted.len() / num_shards;
    let mut shard_order: Vec<usize> = (0..num_shards).collect();
    shuffle(rng, &mut shard_order);

    let mut out = vec![Vec::new(); clients];
    for (pos, &shard) in shard_order.iter().enumerate() {
        let client = pos / classes_per_client;
        let lo = shard * shard_size;
        let hi = if shard == num_shards - 1 {
            sorted.len()
        } else {
            lo + shard_size
        };
        out[client].extend_from_slice(&sorted[lo..hi]);
    }
    out
}

/// Marsaglia–Tsang gamma sampling (shape `a`, scale 1).
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, a: f64) -> f64 {
    if a < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
        let u: f64 = rng.random::<f64>().max(1e-12);
        return sample_gamma(rng, a + 1.0) * u.powf(1.0 / a);
    }
    let d = a - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng) as f64;
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>().max(1e-300);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Draws a Dirichlet(alpha, …, alpha) sample of dimension `k`.
pub fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    assert!(alpha > 0.0, "alpha must be positive");
    let mut g: Vec<f64> = (0..k).map(|_| sample_gamma(rng, alpha)).collect();
    let sum: f64 = g.iter().sum();
    if sum <= 0.0 {
        // Degenerate draw (can only happen with pathological alpha): uniform.
        return vec![1.0 / k as f64; k];
    }
    for v in g.iter_mut() {
        *v /= sum;
    }
    g
}

fn dirichlet_assignment<R: Rng + ?Sized>(
    dataset: &Dataset,
    clients: usize,
    alpha: f64,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); clients];
    let mut by_label: Vec<Vec<usize>> = vec![Vec::new(); dataset.classes];
    for i in 0..dataset.len() {
        by_label[dataset.y[i * dataset.targets_per_row] as usize].push(i);
    }
    for bucket in by_label.into_iter() {
        if bucket.is_empty() {
            continue;
        }
        let mut items = bucket;
        shuffle(rng, &mut items);
        let props = sample_dirichlet(rng, alpha, clients);
        // Largest-remainder apportionment of this class across clients.
        let n = items.len();
        let mut counts: Vec<usize> = props.iter().map(|p| (p * n as f64) as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        // Distribute the remainder to the largest fractional parts.
        let mut fracs: Vec<(usize, f64)> = props
            .iter()
            .enumerate()
            .map(|(c, p)| (c, p * n as f64 - counts[c] as f64))
            .collect();
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut fi = 0usize;
        while assigned < n {
            counts[fracs[fi % clients].0] += 1;
            assigned += 1;
            fi += 1;
        }
        let mut cursor = 0usize;
        for (c, &take) in counts.iter().enumerate() {
            out[c].extend_from_slice(&items[cursor..cursor + take]);
            cursor += take;
        }
    }
    out
}

/// Moves samples from the largest clients so every client has at least
/// `min` samples (needed for per-client train/test splits).
fn rebalance_min_samples(assignment: &mut [Vec<usize>], min: usize) {
    #[allow(
        clippy::while_let_loop,
        reason = "a second exit condition lives mid-body"
    )]
    loop {
        let Some(poorest) = assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.len() < min)
            .min_by_key(|(_, a)| a.len())
            .map(|(i, _)| i)
        else {
            break;
        };
        let richest = assignment
            .iter()
            .enumerate()
            .max_by_key(|(_, a)| a.len())
            .map(|(i, _)| i)
            .expect("non-empty assignment list");
        if assignment[richest].len() <= min {
            break; // nothing left to take without starving the donor
        }
        let moved = assignment[richest]
            .pop()
            .expect("richest client is non-empty");
        assignment[poorest].push(moved);
    }
}

/// Jensen–Shannon-style heterogeneity score: mean L1 distance between each
/// client's label distribution and the global one, in `[0, 2]`.
/// 0 = perfectly IID. Useful for tests and diagnostics.
pub fn label_skew(parts: &[Dataset]) -> f64 {
    assert!(!parts.is_empty());
    let classes = parts[0].classes;
    let mut global = vec![0.0f64; classes];
    let mut total = 0.0f64;
    for p in parts {
        for (g, &c) in global.iter_mut().zip(p.label_histogram().iter()) {
            *g += c as f64;
            total += c as f64;
        }
    }
    for g in global.iter_mut() {
        *g /= total;
    }
    let mut acc = 0.0f64;
    for p in parts {
        let h = p.label_histogram();
        let n: usize = h.iter().sum();
        let mut l1 = 0.0f64;
        for (c, &cnt) in h.iter().enumerate() {
            l1 += (cnt as f64 / n as f64 - global[c]).abs();
        }
        acc += l1;
    }
    acc / parts.len() as f64
}

/// Deals per-client sample budgets that sum to `total`, with sizes varying
/// uniformly within `±spread` of the mean (used by the natural generators
/// to mimic unequal user activity).
pub fn uneven_budgets<R: Rng + ?Sized>(
    rng: &mut R,
    total: usize,
    clients: usize,
    spread: f64,
) -> Vec<usize> {
    assert!((0.0..1.0).contains(&spread), "spread must be in [0,1)");
    let mean = total as f64 / clients as f64;
    let mut budgets: Vec<usize> = (0..clients)
        .map(|_| (mean * (1.0 + uniform(rng, -spread, spread))).max(2.0) as usize)
        .collect();
    // Adjust to hit the exact total.
    let mut diff = total as isize - budgets.iter().sum::<usize>() as isize;
    let mut i = 0usize;
    while diff != 0 {
        let c = i % clients;
        if diff > 0 {
            budgets[c] += 1;
            diff -= 1;
        } else if budgets[c] > 2 {
            budgets[c] -= 1;
            diff += 1;
        }
        i += 1;
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synth_features, FeatureSynthSpec};
    use fedat_tensor::rng::rng_for;

    fn toy_dataset(n: usize, classes: usize) -> Dataset {
        let spec = FeatureSynthSpec {
            features: 4,
            classes,
            separation: 1.0,
            noise: 0.2,
        };
        synth_features(&mut rng_for(99, 1), &spec, n)
    }

    fn assert_exact_cover(parts: &[Dataset], total: usize) {
        let sum: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(sum, total, "partition lost or duplicated samples");
    }

    #[test]
    fn iid_partition_is_even_and_covering() {
        let d = toy_dataset(103, 5);
        let parts = Partitioner::Iid.partition(&d, 10, &mut rng_for(1, 1));
        assert_eq!(parts.len(), 10);
        assert_exact_cover(&parts, 103);
        for p in &parts {
            assert!(p.len() == 10 || p.len() == 11);
        }
    }

    #[test]
    fn iid_partition_has_low_skew() {
        let d = toy_dataset(1000, 5);
        let parts = Partitioner::Iid.partition(&d, 10, &mut rng_for(2, 1));
        assert!(
            label_skew(&parts) < 0.3,
            "IID skew too high: {}",
            label_skew(&parts)
        );
    }

    #[test]
    fn shard_partition_limits_classes_per_client() {
        let d = toy_dataset(1000, 10);
        let parts = Partitioner::Shard {
            classes_per_client: 2,
        }
        .partition(&d, 20, &mut rng_for(3, 1));
        assert_exact_cover(&parts, 1000);
        for (i, p) in parts.iter().enumerate() {
            // A client holds ≤ classes_per_client + 1 labels (+1 from shard
            // boundaries straddling a label change).
            assert!(
                p.distinct_labels() <= 3,
                "client {i} sees {} labels",
                p.distinct_labels()
            );
        }
    }

    #[test]
    fn shard_skew_decreases_with_more_classes() {
        let d = toy_dataset(2000, 10);
        let skew2 = label_skew(
            &Partitioner::Shard {
                classes_per_client: 2,
            }
            .partition(&d, 20, &mut rng_for(4, 1)),
        );
        let skew8 = label_skew(
            &Partitioner::Shard {
                classes_per_client: 8,
            }
            .partition(&d, 20, &mut rng_for(4, 2)),
        );
        assert!(
            skew2 > skew8 + 0.2,
            "2-class skew {skew2} should clearly exceed 8-class skew {skew8}"
        );
    }

    #[test]
    fn dirichlet_covers_and_small_alpha_is_skewed() {
        let d = toy_dataset(2000, 10);
        let parts_skewed =
            Partitioner::Dirichlet { alpha: 0.1 }.partition(&d, 20, &mut rng_for(5, 1));
        assert_exact_cover(&parts_skewed, 2000);
        let parts_flat =
            Partitioner::Dirichlet { alpha: 100.0 }.partition(&d, 20, &mut rng_for(5, 2));
        assert!(label_skew(&parts_skewed) > label_skew(&parts_flat) + 0.2);
    }

    #[test]
    fn every_client_gets_minimum_samples() {
        let d = toy_dataset(200, 10);
        // Extreme skew would starve some clients without rebalancing.
        let parts = Partitioner::Dirichlet { alpha: 0.05 }.partition(&d, 30, &mut rng_for(6, 1));
        for (i, p) in parts.iter().enumerate() {
            assert!(p.len() >= 2, "client {i} has {} samples", p.len());
        }
    }

    #[test]
    fn dirichlet_samples_form_distribution() {
        let mut rng = rng_for(7, 1);
        for alpha in [0.1, 1.0, 10.0] {
            let s = sample_dirichlet(&mut rng, alpha, 8);
            assert_eq!(s.len(), 8);
            assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(s.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn uneven_budgets_sum_exactly() {
        let mut rng = rng_for(8, 1);
        let budgets = uneven_budgets(&mut rng, 1000, 37, 0.5);
        assert_eq!(budgets.iter().sum::<usize>(), 1000);
        assert!(budgets.iter().all(|&b| b >= 2));
        let max = *budgets.iter().max().unwrap();
        let min = *budgets.iter().min().unwrap();
        assert!(max > min, "budgets should vary");
    }
}
