//! # `wmh-data` — synthetic workloads and dataset statistics
//!
//! The paper's experiments (§6.1) run on synthetic bag-of-words data:
//! *"each of which contain 1,000 samples and 100,000 features … the nonzero
//! weights in each vector sample conform to a power-law distribution with
//! the exponent parameter e and the scale parameter s"*, named `SynEeSs`
//! (e.g. `Syn3E0.2S`). This crate provides:
//!
//! * [`synthetic`] — the `SynESS` generator, the six Table 4
//!   configurations ([`synthetic::PAPER_DATASETS`]), and near-duplicate
//!   clusters of their documents for similarity search
//!   ([`SynConfig::generate_clusters`]);
//! * [`stats`] — the Table 4 summary columns (docs, features, average
//!   density, average mean / std of per-element nonzero weights);
//! * [`pairs`] — pair sampling for the MSE experiments and
//!   controlled-similarity pair construction for calibration tests;
//! * [`text`] — Zipf-token topic-mixture corpora, where tf weights arise
//!   organically (the bag-of-words domain of §1).

pub mod pairs;
pub mod stats;
pub mod synthetic;
pub mod text;

pub use stats::DatasetSummary;
pub use synthetic::{Dataset, SynConfig, PAPER_DATASETS};
