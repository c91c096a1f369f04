//! # bootleg-kb
//!
//! The structured-knowledge substrate for the Bootleg reproduction: a
//! Wikidata/YAGO-style knowledge base of entities, fine-grained types,
//! relations, knowledge-graph edges, and ambiguous aliases, plus a synthetic
//! generator that reproduces the *statistical* structure the paper's tail
//! analysis depends on (§2, Appendix D):
//!
//! * entity popularity is Zipfian, so a finite corpus yields head / torso /
//!   tail / unseen occupancy;
//! * type and relation popularity are *separately* Zipfian, and entities draw
//!   types/relations independently of their own popularity, so the large
//!   majority of tail entities carry **non-tail** types (paper: 88%) and
//!   relations (paper: 90%) — the property that makes tail generalization
//!   possible;
//! * aliases are shared across entities of different popularity, creating the
//!   head-vs-tail candidate confusion NED must resolve;
//! * persons carry gender (for pronoun weak labeling), events carry years
//!   (for the paper's "numerical" error bucket), and some entities have
//!   subclass parents sharing an alias (the "granularity" error bucket).

pub mod entity;
pub mod frozen;
pub mod gen;
pub mod idtable;
pub mod ids;
pub mod kb;
pub mod stats;
pub mod zipf;

pub use entity::{AliasInfo, Entity, RelationInfo, TypeInfo};
pub use gen::{generate, KbConfig};
pub use ids::{AliasId, CoarseType, EntityId, Gender, RelationId, TypeId};
pub use kb::KnowledgeBase;
pub use zipf::Zipf;
