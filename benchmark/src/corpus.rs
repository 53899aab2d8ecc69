//! The serving corpus: seeded near-duplicate clusters.
//!
//! The Table-4 `Syn3E0.24S` documents alone make a neighbourless corpus:
//! two independent documents share ~2.5 features, so their generalized
//! Jaccard similarity is ≈ 0.016 and every query's only hit is itself.
//! Here each `Syn3E0.24S` document is a cluster *base*, and the indexed
//! documents, the queries and the documents a write inserts are *variants*
//! of a base: each weight scaled by `exp(u)` with `u ~ U(-WEIGHT_JITTER,
//! WEIGHT_JITTER)`, each element dropped with probability `DROP`, and
//! `ADD · len` fresh elements added with weights from the same power law.
//! Variants of one base sit at similarity ≈ 0.65, well above the 0.5
//! threshold the service's bands are derived for, so probe and re-rank
//! have real candidates to work on.
//!
//! The variant noise uses the benchmark's own `SplitMix64`, keyed by
//! `(seed, base, role, index)`; only the bases come from `wmh-data`.

use wmh_data::PAPER_DATASETS;
use wmh_sets::WeightedSet;

/// Universe size the serving corpus is scaled to (density rescaled so
/// pairwise overlap stays at the paper's level, ~224 non-zeros per doc).
pub const FEATURES: u64 = 20_000;
/// Half-width of the log-uniform weight perturbation.
const WEIGHT_JITTER: f64 = 0.2;
/// Probability that a variant drops a base element.
const DROP: f64 = 0.05;
/// Fresh elements a variant adds, as a share of the base's length.
const ADD: f64 = 0.05;
/// Pareto law of the `Syn3E0.24S` weights (used for added elements).
const PARETO_SHAPE: f64 = 3.0;
const PARETO_SCALE: f64 = 0.24;

/// Which variant stream a document is drawn from; distinct roles never
/// share a document.
#[derive(Debug, Clone, Copy)]
enum Role {
    Indexed = 1,
    Query = 2,
    Insert = 3,
}

/// Cluster shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cluster bases (`Syn3E0.24S` documents).
    pub bases: usize,
    /// Indexed variants per base.
    pub variants: usize,
    /// Held-out query variants per base.
    pub queries_per_base: usize,
    /// Held-out insert variants per base (for the write mix).
    pub inserts_per_base: usize,
}

/// The benchmark's serving shape: 75 bases × 8 variants = 600 documents,
/// with as many held-out queries and as many insert documents.
pub const SERVING: Shape =
    Shape { bases: 75, variants: 8, queries_per_base: 8, inserts_per_base: 8 };

/// A generated corpus. Document `i` of `docs` is indexed under id `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Indexed documents, base-major (`id / variants` is the cluster).
    pub docs: Vec<WeightedSet>,
    /// Held-out query variants, base-major.
    pub queries: Vec<WeightedSet>,
    /// Held-out documents for inserts.
    pub inserts: Vec<WeightedSet>,
}

impl Corpus {
    /// Generate the corpus for `seed`. The same seed gives the same
    /// documents bit for bit.
    ///
    /// # Errors
    /// A base-generator failure, stringified.
    pub fn generate(seed: u64, shape: Shape) -> Result<Self, String> {
        let bases = PAPER_DATASETS[2]
            .scaled_down_preserving_overlap(shape.bases, FEATURES)
            .generate(seed)?
            .docs;
        let variants = |role: Role, per_base: usize| -> Vec<WeightedSet> {
            bases
                .iter()
                .enumerate()
                .flat_map(|(b, base)| (0..per_base).map(move |i| variant(base, seed, b, role, i)))
                .collect()
        };
        Ok(Self {
            docs: variants(Role::Indexed, shape.variants),
            queries: variants(Role::Query, shape.queries_per_base),
            inserts: variants(Role::Insert, shape.inserts_per_base),
        })
    }
}

/// One variant of `base`.
fn variant(base: &WeightedSet, seed: u64, b: usize, role: Role, i: usize) -> WeightedSet {
    let mut rng = SplitMix64::new(
        seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (role as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (i as u64).wrapping_mul(0x1656_67B1_9E37_79F9),
    );
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(base.len() + base.len() / 10);
    for (k, w) in base.iter() {
        if rng.unit() < DROP {
            continue;
        }
        pairs.push((k, w * (WEIGHT_JITTER * (2.0 * rng.unit() - 1.0)).exp()));
    }
    let added = (ADD * base.len() as f64).round() as usize;
    let mut fresh = 0;
    while fresh < added {
        let k = rng.next() % FEATURES;
        if base.weight(k) > 0.0 || pairs.iter().any(|&(e, _)| e == k) {
            continue;
        }
        let u = rng.unit().max(f64::MIN_POSITIVE);
        pairs.push((k, PARETO_SCALE * u.powf(-1.0 / PARETO_SHAPE)));
        fresh += 1;
    }
    WeightedSet::from_pairs(pairs).expect("variants keep finite positive weights")
}

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's own generator,
/// so its inputs do not move when the library's generators change.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmh_sets::generalized_jaccard;

    const SMALL: Shape = Shape { bases: 12, variants: 8, queries_per_base: 2, inserts_per_base: 1 };

    fn bytes(c: &Corpus) -> Vec<u8> {
        let mut out = Vec::new();
        for doc in c.docs.iter().chain(&c.queries).chain(&c.inserts) {
            for (k, w) in doc.iter() {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
            out.push(0xFF);
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = Corpus::generate(7, SMALL).expect("generate");
        let b = Corpus::generate(7, SMALL).expect("generate");
        let c = Corpus::generate(8, SMALL).expect("generate");
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn queries_are_held_out() {
        let c = Corpus::generate(3, SMALL).expect("generate");
        for q in c.queries.iter().chain(&c.inserts) {
            assert!(c.docs.iter().all(|d| d != q), "a held-out document is indexed");
        }
    }

    #[test]
    fn every_query_cluster_neighbour_is_above_the_band_threshold() {
        for seed in [1, 2] {
            let c = Corpus::generate(seed, SERVING).expect("generate");
            assert_eq!(c.docs.len(), 600);
            for (i, q) in c.queries.iter().enumerate() {
                let cluster = i / SERVING.queries_per_base;
                let members = &c.docs[cluster * SERVING.variants..(cluster + 1) * SERVING.variants];
                for d in members {
                    let sim = generalized_jaccard(q, d);
                    assert!(sim > 0.5, "seed {seed}: cluster {cluster} neighbour at {sim}");
                }
                // And the clusters stay apart: an outside document is far.
                let outside = &c.docs[((cluster + 1) % SERVING.bases) * SERVING.variants];
                assert!(generalized_jaccard(q, outside) < 0.2);
            }
        }
    }
}
