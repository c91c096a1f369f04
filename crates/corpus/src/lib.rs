//! # bootleg-corpus
//!
//! The self-supervision data pipeline of the Bootleg reproduction: a
//! synthetic Wikipedia-style corpus generator whose sentences are built from
//! the paper's four reasoning-pattern templates (§2.1), page structure with
//! deliberately-unlabeled mentions (the paper estimates 68% of Wikipedia
//! entities are unlabeled), the two weak-labeling heuristics of §3.3.2
//! (gender-matched pronouns, alternative names), and generators for the three
//! benchmark analogs (KORE50 / RSS500 / AIDA, Appendix B).
//!
//! The corpus substitutes for the November-2019 Wikipedia dump the paper
//! trains on; DESIGN.md documents why the substitution preserves the tail
//! phenomena (all of them are statistical properties this generator controls
//! directly).

pub mod benchmarks;
pub mod generator;
pub mod sentence;
pub mod stats;
pub mod templates;
pub mod vocab;
pub mod weaklabel;

pub use generator::{generate_corpus, Corpus, CorpusConfig};
pub use sentence::{Document, LabelKind, Mention, Pattern, Sentence};
pub use vocab::{Vocab, VocabBuilder};
