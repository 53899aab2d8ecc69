//! Scratch-kernel parity: a differential dump proving, for **all fifteen**
//! catalog algorithms, that the zero-allocation kernel paths
//! (`sketch_with` over a reused [`SketchScratch`], `sketch_batch_into`
//! over a reused [`CodeBatch`]) are byte-identical to the plain per-call
//! `sketch`/`sketch_batch` paths — extending the PR-5 matrix to the
//! beyond-the-paper samplers, whose kernels share scratch buffers in new
//! ways (DartMinHash sorts entry bands into the pair buffer; BagMinHash
//! builds its tournament tree in the rank-key buffer).
//!
//! The matrix is 15 algorithms × 2 seeds × 3 D × 5 sets, checked on both
//! the single and the batch path (900 cases), all through **one** scratch
//! and one code batch so cross-case buffer reuse (including
//! Dart-after-Bag hand-offs of the same buffers) is part of what is
//! proven. The whole dump is rendered to a string and the test re-runs
//! the matrix to assert the dump is byte-stable, and its CRC-32C is
//! pinned so that a refactor claiming zero output change is checked
//! against the bytes the code produced before it, not only against itself.
//!
//! Since the vectorization PR, the matrix additionally re-derives the
//! codes of MinHash and the six CWS-family algorithms through their
//! **per-element scalar APIs** (argmin over `element_sample`-style calls
//! — exactly the pre-vectorization kernels) and asserts the lane kernels
//! match byte for byte, adding 210 `scalar` dump lines.

use std::fmt::Write as _;

use wmh_core::cws::{encode_step, Ccws, Cws, I2cws, Icws, Pcws, ZeroBitCws};
use wmh_core::minhash::MinHash;
use wmh_core::others::UpperBounds;
use wmh_core::sketch::{pack2, pack3};
use wmh_core::{Algorithm, AlgorithmConfig, CodeBatch, SketchScratch};
use wmh_hash::crc32c::crc32c;
use wmh_sets::WeightedSet;

const SEEDS: [u64; 2] = [0x5C4A7C8, 0xD1FF];
const DS: [usize; 3] = [1, 16, 64];
/// CRC-32C of the full rendered dump (1110 lines).
const DUMP_CRC32C: u32 = 0x4600_9641;

fn sets() -> Vec<WeightedSet> {
    vec![
        // Single element.
        WeightedSet::from_pairs([(42, 1.0)]).expect("valid"),
        // Small mixed weights.
        WeightedSet::from_pairs([(1, 0.25), (2, 1.5), (9, 0.75)]).expect("valid"),
        // Wide (but quantizer-tractable) magnitude spread in one set; the
        // truly extreme 1e±300 weights live in the chaos suite and the
        // modern samplers' unit tests, where batch-wide quantizer budgets
        // don't mask the comparison.
        WeightedSet::from_pairs([(3, 0.001), (5, 1.0), (6, 500.0)]).expect("valid"),
        // Megasparse indices.
        WeightedSet::from_pairs([(u64::MAX - 7, 2.0), (u64::MAX, 0.5)]).expect("valid"),
        // A dozen elements, geometric weights.
        WeightedSet::from_pairs((0..12).map(|k| (k * 97, 1.5_f64.powi(k as i32 - 6))))
            .expect("valid"),
    ]
}

fn config(sets: &[WeightedSet]) -> AlgorithmConfig {
    AlgorithmConfig {
        quantization_constant: 4.0,
        upper_bounds: Some(UpperBounds::from_sets(sets.iter()).expect("non-empty")),
        ..AlgorithmConfig::default()
    }
}

/// Re-derive the expected codes through the **per-element scalar APIs** for
/// the seven algorithms whose kernels were vectorized (MinHash + the CWS
/// family). The pre-vectorization kernels were literally these argmins, so
/// equality proves the lane kernels are byte-identical to the scalar path.
/// Returns `None` for algorithms without a public per-element surface.
fn scalar_reference(
    algorithm: Algorithm,
    seed: u64,
    num_hashes: usize,
    config: &AlgorithmConfig,
    set: &WeightedSet,
) -> Option<Vec<u64>> {
    let codes: Vec<u64> = match algorithm {
        Algorithm::MinHash => {
            let mh = MinHash::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| pack2(d as u64, mh.min_element(set, d).expect("non-empty")))
                .collect()
        }
        Algorithm::Cws => {
            let cws = Cws::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| {
                    let (k, r) = set
                        .iter()
                        .map(|(k, s)| (k, cws.element_sample(d, k, s)))
                        .min_by(|(_, a), (_, b)| a.value.total_cmp(&b.value))
                        .expect("non-empty");
                    pack2(d as u64, pack3(k, r.interval as i64 as u64, u64::from(r.step)))
                })
                .collect()
        }
        Algorithm::Icws => {
            let icws = Icws::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| {
                    let (k, smp) = icws.sample(set, d).expect("non-empty");
                    pack3(d as u64, k, encode_step(smp.step))
                })
                .collect()
        }
        Algorithm::ZeroBitCws => {
            let zb = ZeroBitCws::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| {
                    let (k, _) = zb.icws().sample(set, d).expect("non-empty");
                    pack2(d as u64, k)
                })
                .collect()
        }
        Algorithm::Ccws => {
            let ccws = Ccws::new(seed, num_hashes)
                .with_weight_scale(config.ccws_weight_scale)
                .expect("valid scale");
            (0..num_hashes)
                .map(|d| {
                    let (k, t, a) = set
                        .iter()
                        .map(|(k, s)| {
                            let (t, _, a) = ccws.element_sample(d, k, s);
                            (k, t, a)
                        })
                        .min_by(|x, y| x.2.total_cmp(&y.2))
                        .expect("non-empty");
                    if a.is_infinite() {
                        pack3(d as u64, k ^ 0xDEAD, u64::MAX)
                    } else {
                        pack3(d as u64, k, encode_step(t))
                    }
                })
                .collect()
        }
        Algorithm::Pcws => {
            let pcws = Pcws::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| {
                    let (k, t, _) = set
                        .iter()
                        .map(|(k, s)| {
                            let (t, _, a) = pcws.element_sample(d, k, s);
                            (k, t, a)
                        })
                        .min_by(|x, y| x.2.total_cmp(&y.2))
                        .expect("non-empty");
                    pack3(d as u64, k, encode_step(t))
                })
                .collect()
        }
        Algorithm::I2cws => {
            let i2 = I2cws::new(seed, num_hashes);
            (0..num_hashes)
                .map(|d| {
                    let (k, s, _) = set
                        .iter()
                        .map(|(k, s)| (k, s, i2.element_z(d, k, s).1))
                        .min_by(|x, y| x.2.total_cmp(&y.2))
                        .expect("non-empty");
                    let (t1, _) = i2.element_y(d, k, s);
                    pack3(d as u64, k, encode_step(t1))
                })
                .collect()
        }
        _ => return None,
    };
    Some(codes)
}

/// Run the full matrix once, asserting kernel/per-call parity case by
/// case, and return the rendered differential dump.
fn run_matrix() -> String {
    let sets = sets();
    let config = config(&sets);
    let mut dump = String::new();
    // One scratch + one code batch across ALL cases: buffer reuse across
    // algorithms and shapes is part of the contract under test.
    let mut scratch = SketchScratch::new();
    let mut batch = CodeBatch::new();
    for &algorithm in &Algorithm::ALL {
        for seed in SEEDS {
            for d in DS {
                let sketcher = algorithm.build(seed, d, &config).expect("buildable");
                // Batch path: one call over all five sets.
                let plain_batch = sketcher.sketch_batch(&sets).expect("batch");
                sketcher.sketch_batch_into(&sets, &mut batch, &mut scratch).expect("batch into");
                for (case, set) in sets.iter().enumerate() {
                    let plain = sketcher.sketch(set).expect("sketch");
                    let with = sketcher.sketch_with(set, &mut scratch).expect("sketch_with");
                    assert_eq!(
                        plain,
                        with,
                        "{} seed={seed} D={d} set#{case}: sketch_with diverged",
                        algorithm.name()
                    );
                    assert_eq!(
                        plain.codes,
                        plain_batch[case].codes,
                        "{} seed={seed} D={d} set#{case}: sketch_batch diverged",
                        algorithm.name()
                    );
                    assert_eq!(
                        plain.codes.as_slice(),
                        batch.row(case),
                        "{} seed={seed} D={d} set#{case}: sketch_batch_into diverged",
                        algorithm.name()
                    );
                    // For the vectorized algorithms, re-derive the codes
                    // through the per-element scalar APIs: the lane kernels
                    // must be byte-identical to the scalar path.
                    let reference = scalar_reference(algorithm, seed, d, &config, set);
                    if let Some(reference) = &reference {
                        assert_eq!(
                            &plain.codes,
                            reference,
                            "{} seed={seed} D={d} set#{case}: lane kernel diverged from \
                             the scalar reference",
                            algorithm.name()
                        );
                    }
                    // Dump lines per case: single + batch path, plus the
                    // scalar reference where one exists.
                    for (path, codes) in [
                        Some(("single", plain.codes.as_slice())),
                        Some(("batch", batch.row(case))),
                        reference.as_deref().map(|r| ("scalar", r)),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        write!(dump, "{} {seed:#x} D{d} set{case} {path}", algorithm.name())
                            .expect("write");
                        for code in codes {
                            write!(dump, " {code:016x}").expect("write");
                        }
                        dump.push('\n');
                    }
                }
            }
        }
    }
    dump
}

#[test]
fn kernel_paths_are_byte_identical_across_the_catalog() {
    let dump = run_matrix();
    // 15 algorithms × 2 seeds × 3 D × 5 sets × (single + batch), plus a
    // scalar-reference line for each of the 7 vectorized algorithms.
    assert_eq!(dump.lines().count(), 15 * 2 * 3 * 5 * 2 + 7 * 2 * 3 * 5, "matrix shrank");
    // Byte-stability: an independent second pass (fresh scratch, fresh
    // code batch, fresh sketchers) must reproduce the dump exactly.
    let again = run_matrix();
    assert_eq!(dump, again, "differential dump is not byte-stable across runs");
    // Pinned content: the two-pass check above cannot see a change that
    // shifts every byte consistently, so the dump's CRC-32C is fixed. A
    // refactor that claims zero output change must leave it untouched.
    assert_eq!(
        crc32c(dump.as_bytes()),
        DUMP_CRC32C,
        "differential dump changed: some algorithm's output bytes moved"
    );
}
