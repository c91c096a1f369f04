//! # bootleg-core
//!
//! The Bootleg model (CIDR 2021, §3): a self-supervised named entity
//! disambiguation system explicitly grounded in four reasoning patterns.
//!
//! The architecture follows the paper exactly:
//!
//! * **Signal encoding (§3.1)** — each candidate entity is represented by the
//!   concatenation of its entity embedding `uₑ`, an additive-attention pool
//!   `tₑ` over its type embeddings (plus a predicted coarse mention type,
//!   Appendix A), and an additive-attention pool `rₑ` over its relation
//!   embeddings, projected by an MLP: `e = MLP([uₑ, tₑ, rₑ])`. The candidate
//!   matrix **E** gets the mention's first/last-token positional encoding
//!   added (Appendix A).
//! * **Modules (§3.2)** — per layer:
//!   `E′ = MHA(E, W) + MHA(E)` (Phrase2Ent cross-attention to the sentence
//!   matrix **W** and Ent2Ent self-attention), then for each KG adjacency
//!   `E_k = softmax(K + wI) E′ + E′` (KG2Ent with learned scalar `w`);
//!   multiple KG modules average on the forward path.
//! * **Scoring** — `S = max(E_k vᵀ, E′ vᵀ)`, an ensemble that lets
//!   collective (KG) reasoning win only when it is the stronger prediction.
//! * **2-D regularization (§3.3.1)** — the whole entity embedding is zeroed
//!   with probability `p(e)` before the MLP, where `p` follows one of the
//!   Appendix-B schemes (fixed, Pop, InvPop{Log,Pow,Lin}).
//! * **Training** — Adam, cross-entropy over candidate scores, plus the
//!   coarse type-prediction loss (Appendix A).
//! * **Compression (§4.4)** — keep the top-k% entity embeddings by training
//!   popularity and map the rest to one shared vector.

pub mod compression;
pub mod config;
pub mod cooccur;
pub mod entitycache;
pub mod example;
pub mod explain;
pub mod fault;
pub mod forward;
pub mod frozen;
pub mod model;
pub mod regularization;
pub mod size;
pub mod train;

pub use compression::compress_entity_embeddings;
pub use config::{BootlegConfig, ModelVariant};
pub use entitycache::CachePolicy;
pub use example::{ExMention, Example, ExampleDefect, ValidationLimits};
pub use explain::{Explanation, Signal};
pub use forward::{Deadline, ForwardInterrupted, ForwardOptions, ForwardOutput};
pub use frozen::{
    artifact_from_env, freeze, freeze_to_path, thaw_from_bytes, thaw_from_path, FrozenBundle,
    FrozenError,
};
pub use model::BootlegModel;
pub use regularization::RegScheme;
pub use fault::{corrupt_file, CorruptionMode, Fault, FaultPlan};
pub use size::SizeReport;
pub use train::{
    train, train_resumable, AnomalyConfig, CheckpointConfig, RecoveryEvent, RecoveryKind,
    TrainConfig, TrainOutcome, TrainReport, TrainStatus,
};
