//! # lc-core — the paper's contribution as a library
//!
//! End-to-end n-gram language classification over Parallel Bloom Filters:
//!
//! 1. **Training** ([`profile`]): build a top-`t` 4-gram profile per language
//!    from training documents (paper: `t = 5000`, >99% accuracy).
//! 2. **Classification** ([`classifier`]): test each document n-gram for
//!    membership in every language's Bloom filter simultaneously, increment
//!    per-language match counters, and pick the language with the highest
//!    count (the HAIL scoring rule the paper adopts). An exact
//!    (direct-lookup) classifier is included as the false-positive-free
//!    reference, mirroring HAIL's direct memory tables.
//! 3. **Hardware-shaped parallelism** ([`parallel`]): the paper's *parallel
//!    multi-language classifier* replicates the classifier `c` times and uses
//!    dual-ported RAMs to test `2c` n-grams per clock (their build: `c = 4`,
//!    8 n-grams/clock), merging counts through an adder tree at
//!    end-of-document. [`parallel::ParallelClassifier`] reproduces that
//!    datapath shape (and its count-exactness), and [`parallel::classify_batch`]
//!    provides document-level parallelism over a Rayon pool — the software
//!    analogue of "parallel document processing".
//! 4. **Evaluation** ([`eval`]): confusion matrices, per-language and average
//!    accuracy, and top-2 margin statistics (§5.1 notes the margin between
//!    the two highest-scoring languages dwarfs the false-positive rate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod eval;
pub mod parallel;
pub mod profile;
pub mod result;
pub mod streaming;
pub mod unicode;

pub use classifier::{ExactClassifier, MultiLanguageClassifier};
pub use eval::{ConfusionMatrix, EvalSummary};
pub use lc_bloom::SimdLevel;
pub use parallel::{classify_batch, ParallelClassifier};
pub use profile::{ClassifierBuilder, LanguageProfile, PAPER_PROFILE_SIZE};
pub use result::ClassificationResult;
pub use streaming::StreamingSession;
pub use unicode::{build_wide_profile, WideClassifier};
