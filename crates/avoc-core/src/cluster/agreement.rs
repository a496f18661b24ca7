//! AVOC's simplified agreement clustering (§5 of the paper).
//!
//! The clustering step mirrors the agreement calculation of the voting
//! algorithms: two values agree when they lie within a *scaling threshold* of
//! each other, and agreement is closed transitively (single-link grouping, the
//! same connectivity logic as DBSCAN with `min_points = 1`). The output value
//! of a bootstrap round is then derived from the **largest** group — either
//! its mean or its closest real member, depending on the collation method of
//! the surrounding voter.
//!
//! The paper stresses *self-calibration*: instead of a costly parameter
//! tuning phase, the margin is soft-dynamic, i.e. scales with a reference
//! value ([`MarginMode::Relative`]). An absolute margin is also provided for
//! data whose magnitude carries no meaning (e.g. RSSI in dBm).

pub use crate::agreement::{MarginMode, MarginModeError};
use crate::AgreementParams;
use std::fmt;

/// A group of mutually agreeing values produced by [`AgreementClusterer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Cluster {
    /// Indices (into the original input slice) of the cluster's members.
    pub fn members(&self) -> &[usize] {
        &self.indices
    }

    /// The member values themselves.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the cluster is empty (never true for clusters produced by
    /// [`AgreementClusterer::cluster`]).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Mean of the member values.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.values.is_empty(), "cluster is never empty");
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The member value closest to the cluster mean — the "closest real
    /// value" used by mean-nearest-neighbour collation.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn nearest_real_value(&self) -> f64 {
        let m = self.mean();
        *self
            .values
            .iter()
            .min_by(|a, b| {
                (*a - m)
                    .abs()
                    .partial_cmp(&(*b - m).abs())
                    .expect("finite values")
            })
            .expect("cluster is never empty")
    }

    /// Population variance of the member values.
    pub fn variance(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.values.len() as f64
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster({} members, mean {:.4})",
            self.len(),
            self.mean()
        )
    }
}

/// The result of clustering one round of candidate values.
///
/// [`AgreementClusterer::cluster_into`] regroups a `Clustering` in place:
/// clusters that a round no longer needs keep their buffers for the next
/// one, so a warmed `Clustering` regroups without allocating.
#[derive(Clone, Default)]
pub struct Clustering {
    /// The live clusters first (`..live`), then spare ones.
    clusters: Vec<Cluster>,
    live: usize,
    n_input: usize,
    /// Union-find parents; after grouping, each input's root.
    parent: Vec<usize>,
    /// Each root's index into `clusters`.
    slot: Vec<usize>,
}

impl PartialEq for Clustering {
    fn eq(&self, other: &Self) -> bool {
        self.clusters() == other.clusters() && self.n_input == other.n_input
    }
}

impl fmt::Debug for Clustering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clustering")
            .field("clusters", &self.clusters())
            .field("n_input", &self.n_input)
            .finish()
    }
}

impl Clustering {
    /// All clusters, ordered by descending size (ties: ascending variance,
    /// then first member index — deterministic).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters[..self.live]
    }

    /// The largest cluster, or `None` for empty input.
    ///
    /// Size ties are broken towards the tighter (lower-variance) cluster —
    /// with equal evidence, the more self-consistent group is the more
    /// trustworthy internal ground truth.
    pub fn largest_cluster(&self) -> Option<&Cluster> {
        self.clusters().first()
    }

    /// The largest cluster, breaking *size* ties by proximity of the cluster
    /// mean to `reference` (the paper's tie-breaking mechanism: "proximity to
    /// the previous output").
    pub fn largest_cluster_near(&self, reference: f64) -> Option<&Cluster> {
        let best_len = self.largest_cluster()?.len();
        self.clusters()
            .iter()
            .take_while(|c| c.len() == best_len)
            .min_by(|a, b| {
                (a.mean() - reference)
                    .abs()
                    .partial_cmp(&(b.mean() - reference).abs())
                    .expect("finite means")
            })
    }

    /// Indices of values that are *not* in the largest cluster — the outliers
    /// the bootstrap eliminates in-place.
    pub fn outliers(&self) -> Vec<usize> {
        match self.largest_cluster() {
            None => Vec::new(),
            Some(top) => {
                let mut out: Vec<usize> = self
                    .clusters()
                    .iter()
                    .skip(1)
                    .flat_map(|c| c.members().iter().copied())
                    .collect();
                debug_assert!(top.len() + out.len() == self.n_input);
                out.sort_unstable();
                out
            }
        }
    }

    /// Fraction of input values that ended up in the largest cluster
    /// (a confidence signal in `[0, 1]`; `0` for empty input).
    pub fn majority_fraction(&self) -> f64 {
        match (self.largest_cluster(), self.n_input) {
            (Some(c), n) if n > 0 => c.len() as f64 / n as f64,
            _ => 0.0,
        }
    }
}

/// AVOC's self-calibrating agreement clusterer for one-dimensional values.
///
/// # Example
///
/// ```
/// use avoc_core::cluster::{AgreementClusterer, MarginMode};
///
/// // 5% soft-dynamic margin, as in the paper's UC-1 configuration.
/// let c = AgreementClusterer::new(0.05, MarginMode::Relative);
/// let clustering = c.cluster(&[18.2, 18.3, 24.4, 18.25, 18.1]);
/// assert_eq!(clustering.clusters().len(), 2);
/// assert_eq!(clustering.outliers(), vec![2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgreementClusterer {
    /// Binary agreement only: the soft multiplier stays at 1.
    params: AgreementParams,
}

impl AgreementClusterer {
    /// Creates a clusterer with the given threshold and margin mode.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and non-negative.
    pub fn new(threshold: f64, mode: MarginMode) -> Self {
        AgreementClusterer {
            params: AgreementParams::new(threshold, 1.0, mode),
        }
    }

    /// Whether two values agree under this clusterer's margin.
    fn agrees(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.params.tolerance(a, b)
    }

    /// Groups `values` into agreement clusters (transitive closure of the
    /// pairwise agreement relation), ordered by descending size.
    ///
    /// Non-finite values are treated as their own singleton outlier clusters
    /// so a stray NaN cannot poison the grouping.
    pub fn cluster(&self, values: &[f64]) -> Clustering {
        let mut clustering = Clustering::default();
        self.cluster_into(values, &mut clustering);
        clustering
    }

    /// [`AgreementClusterer::cluster`] into `out`, reusing its buffers: once
    /// they have grown to a round's shape, regrouping allocates nothing.
    pub fn cluster_into(&self, values: &[f64], out: &mut Clustering) {
        let n = values.len();
        // Union-find over indices.
        let parent = &mut out.parent;
        parent.clear();
        parent.extend(0..n);
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            // Path compression.
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for i in 0..n {
            if !values[i].is_finite() {
                continue;
            }
            for j in (i + 1)..n {
                if !values[j].is_finite() {
                    continue;
                }
                if self.agrees(values[i], values[j]) {
                    let (ri, rj) = (find(parent, i), find(parent, j));
                    if ri != rj {
                        parent[rj] = ri;
                    }
                }
            }
        }
        for i in 0..n {
            find(parent, i);
        }

        // One cluster per root, in root order, members in input order.
        out.slot.clear();
        out.slot.resize(n, 0);
        out.live = 0;
        for r in 0..n {
            if out.parent[r] != r {
                continue;
            }
            if out.live == out.clusters.len() {
                out.clusters.push(Cluster {
                    indices: Vec::new(),
                    values: Vec::new(),
                });
            }
            let cluster = &mut out.clusters[out.live];
            cluster.indices.clear();
            cluster.values.clear();
            out.slot[r] = out.live;
            out.live += 1;
        }
        for (i, &v) in values.iter().enumerate() {
            let cluster = &mut out.clusters[out.slot[out.parent[i]]];
            cluster.indices.push(i);
            cluster.values.push(v);
        }
        out.clusters[..out.live].sort_by(|a, b| {
            b.len()
                .cmp(&a.len())
                .then_with(|| {
                    a.variance()
                        .partial_cmp(&b.variance())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.indices[0].cmp(&b.indices[0]))
        });
        out.n_input = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(t: f64) -> AgreementClusterer {
        AgreementClusterer::new(t, MarginMode::Relative)
    }

    #[test]
    fn empty_input() {
        let c = rel(0.05).cluster(&[]);
        assert!(c.largest_cluster().is_none());
        assert!(c.outliers().is_empty());
        assert_eq!(c.majority_fraction(), 0.0);
    }

    #[test]
    fn single_value_is_its_own_cluster() {
        let c = rel(0.05).cluster(&[7.0]);
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.largest_cluster().unwrap().values(), &[7.0]);
        assert_eq!(c.majority_fraction(), 1.0);
    }

    #[test]
    fn outlier_is_separated() {
        let c = rel(0.05).cluster(&[18.0, 18.2, 18.1, 24.0, 17.9]);
        assert_eq!(c.clusters().len(), 2);
        assert_eq!(c.largest_cluster().unwrap().len(), 4);
        assert_eq!(c.outliers(), vec![3]);
    }

    #[test]
    fn transitive_chaining_merges_clusters() {
        // 10 and 11 agree (10%), 11 and 12.05 agree, but 10 and 12.05 do not:
        // single-link still puts all three together.
        let c = rel(0.10).cluster(&[10.0, 11.0, 12.05]);
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.largest_cluster().unwrap().len(), 3);
    }

    #[test]
    fn absolute_margin() {
        let c = AgreementClusterer::new(0.5, MarginMode::Absolute);
        let clustering = c.cluster(&[-80.0, -80.4, -60.0]);
        assert_eq!(clustering.clusters().len(), 2);
        assert_eq!(clustering.largest_cluster().unwrap().len(), 2);
    }

    #[test]
    fn agreement_is_symmetric() {
        let c = rel(0.05);
        for (a, b) in [(18.0, 18.5), (18.5, 18.0), (-3.0, -2.9), (0.0, 0.0)] {
            assert_eq!(c.agrees(a, b), c.agrees(b, a));
        }
    }

    #[test]
    fn zero_values_only_agree_exactly_in_relative_mode() {
        let c = rel(0.05);
        assert!(c.agrees(0.0, 0.0));
        assert!(!c.agrees(0.0, 0.1));
    }

    #[test]
    fn size_tie_broken_by_variance() {
        // Two clusters of two; the tighter pair must come first.
        let c = rel(0.05).cluster(&[100.0, 104.0, 200.0, 200.1]);
        let first = c.largest_cluster().unwrap();
        assert_eq!(first.len(), 2);
        assert!(first.values().contains(&200.0));
    }

    #[test]
    fn size_tie_broken_by_reference_proximity() {
        let c = rel(0.05).cluster(&[100.0, 104.0, 200.0, 200.1]);
        let near = c.largest_cluster_near(102.0).unwrap();
        assert!(near.values().contains(&100.0));
        let near2 = c.largest_cluster_near(199.0).unwrap();
        assert!(near2.values().contains(&200.0));
    }

    #[test]
    fn nearest_real_value_is_a_member() {
        let c = rel(0.05).cluster(&[18.0, 18.4, 18.1]);
        let top = c.largest_cluster().unwrap();
        let nrv = top.nearest_real_value();
        assert!(top.values().contains(&nrv));
        // mean is ~18.1667 → nearest member is 18.1
        assert_eq!(nrv, 18.1);
    }

    #[test]
    fn nan_is_isolated() {
        let c = rel(0.05).cluster(&[18.0, f64::NAN, 18.1]);
        assert_eq!(c.largest_cluster().unwrap().len(), 2);
        assert_eq!(c.outliers(), vec![1]);
    }

    #[test]
    fn majority_fraction_reflects_consensus() {
        let c = rel(0.05).cluster(&[18.0, 18.1, 18.05, 25.0]);
        assert_eq!(c.majority_fraction(), 0.75);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_panics() {
        let _ = AgreementClusterer::new(-0.1, MarginMode::Relative);
    }

    #[test]
    fn cluster_into_regroups_in_place_like_a_fresh_clustering() {
        let c = rel(0.05);
        let mut reused = Clustering::default();
        // Shrinking, growing and reshaping must leave nothing stale behind.
        for values in [
            &[18.0, 18.2, 18.1, 24.0, 17.9][..],
            &[7.0][..],
            &[100.0, 104.0, 200.0, 200.1, 300.0, 18.0][..],
            &[][..],
            &[18.0, f64::NAN, 18.1][..],
        ] {
            c.cluster_into(values, &mut reused);
            let fresh = c.cluster(values);
            // Debug, not `==`: a NaN member never equals itself.
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
            assert_eq!(reused.outliers(), fresh.outliers());
        }
    }

    #[test]
    fn all_identical_values_form_one_cluster() {
        let c = rel(0.0).cluster(&[5.0, 5.0, 5.0]);
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.largest_cluster().unwrap().mean(), 5.0);
    }
}
