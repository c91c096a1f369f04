//! Frozen-artifact codec for the knowledge base.
//!
//! Serialises every KB record vector — entities (with type/relation bags,
//! aliases, cue tokens, popularity), types, relations, aliases (candidate
//! lists), and KG edges — into one `KBASE` section payload for the
//! `tensor::frozen` container, and decodes it back. The derived lookup
//! indexes (the CSR adjacency and the alias surface index) are *not*
//! serialised; [`decode`] rebuilds them through [`KnowledgeBase::finalize`],
//! so a thawed KB is structurally identical to a live-built one.
//!
//! The decoder trusts nothing: every count, id, and cross-reference is
//! bounds-checked with a typed [`FrozenError`] before use, and a record
//! count must fit in the bytes left before it reserves anything.

use crate::entity::{AliasInfo, Entity, RelationInfo, TypeInfo};
use crate::ids::{AliasId, CoarseType, EntityId, Gender, RelationId, TypeId};
use crate::kb::KnowledgeBase;
use bootleg_tensor::frozen::{Builder, Cursor, FrozenError};

/// Section id the KB payload lives under.
pub const SECTION_KB: &str = "KBASE";

/// Sanity ceiling on record counts (entities, aliases, edges, tokens). Large
/// enough for any benchmark KB, small enough that a hostile count cannot
/// drive a giant allocation.
const MAX_RECORDS: usize = 1 << 26;
/// Sanity ceiling on string/token-list lengths.
const MAX_STR: usize = 1 << 12;

fn schema(what: impl Into<String>) -> FrozenError {
    FrozenError::SectionSchema { section: SECTION_KB.to_string(), what: what.into() }
}

fn strings(b: &mut Builder, ss: &[String]) {
    b.u32(ss.len() as u32);
    for s in ss {
        b.string(s);
    }
}

/// A record count, refused unless `n` records of at least `min_bytes`
/// each fit in what is left of the payload. Only a count that passes may
/// size a vector.
fn records(c: &mut Cursor<'_>, kind: &str, min_bytes: usize) -> Result<usize, FrozenError> {
    let n = c.count(MAX_RECORDS)?;
    if n > c.remaining() / min_bytes {
        return Err(schema(format!(
            "{n} {kind} records cannot fit in the {} bytes left",
            c.remaining()
        )));
    }
    Ok(n)
}

fn read_strings(c: &mut Cursor<'_>) -> Result<Vec<String>, FrozenError> {
    let n = c.count(MAX_STR)?;
    (0..n).map(|_| c.string(MAX_STR)).collect()
}

/// Encodes `kb` into the `KBASE` payload bytes.
pub fn encode(kb: &KnowledgeBase) -> Vec<u8> {
    let mut b = Builder::new();

    b.u32(kb.types.len() as u32);
    for t in &kb.types {
        b.u32(t.id.0);
        b.string(&t.name);
        b.u8(t.coarse.index() as u8);
        strings(&mut b, &t.affordance_tokens);
        b.f32(t.adoption_weight);
    }

    b.u32(kb.relations.len() as u32);
    for r in &kb.relations {
        b.u32(r.id.0);
        b.string(&r.name);
        strings(&mut b, &r.cue_tokens);
        b.f32(r.adoption_weight);
    }

    b.u32(kb.entities.len() as u32);
    for e in &kb.entities {
        b.u32(e.id.0);
        strings(&mut b, &e.title_tokens);
        b.u32s(&e.types.iter().map(|t| t.0).collect::<Vec<_>>());
        b.u32s(&e.relations.iter().map(|r| r.0).collect::<Vec<_>>());
        b.u8(e.coarse.index() as u8);
        match e.gender {
            None => b.u8(0),
            Some(Gender::Male) => b.u8(1),
            Some(Gender::Female) => b.u8(2),
        };
        b.u32s(&e.aliases.iter().map(|a| a.0).collect::<Vec<_>>());
        strings(&mut b, &e.cue_tokens);
        b.f32(e.popularity);
        match e.year {
            None => b.u8(0),
            Some(y) => {
                b.u8(1);
                b.u32(y as u32)
            }
        };
        match e.parent {
            None => b.u8(0),
            Some(p) => {
                b.u8(1);
                b.u32(p.0)
            }
        };
    }

    b.u32(kb.aliases.len() as u32);
    for a in &kb.aliases {
        b.u32(a.id.0);
        b.string(&a.surface);
        b.u32s(&a.candidates.iter().map(|e| e.0).collect::<Vec<_>>());
    }

    b.u32(kb.edges.len() as u32);
    for &(s, o, r) in &kb.edges {
        b.u32(s.0);
        b.u32(o.0);
        b.u32(r.0);
    }

    b.into_bytes()
}

fn coarse_from(idx: u8) -> Result<CoarseType, FrozenError> {
    CoarseType::ALL
        .get(idx as usize)
        .copied()
        .ok_or_else(|| schema(format!("coarse type index {idx} out of range")))
}

fn check_id(kind: &str, got: u32, expect: usize) -> Result<(), FrozenError> {
    if got as usize != expect {
        return Err(schema(format!("{kind} id {got} at position {expect} (ids must be dense)")));
    }
    Ok(())
}

fn check_ref(kind: &str, id: u32, n: usize) -> Result<(), FrozenError> {
    if id as usize >= n {
        return Err(schema(format!("{kind} reference {id} out of range (have {n})")));
    }
    Ok(())
}

/// Decodes a `KBASE` payload into a finalized [`KnowledgeBase`].
pub fn decode(payload: &[u8]) -> Result<KnowledgeBase, FrozenError> {
    let mut c = Cursor::new(SECTION_KB, payload);
    let mut kb = KnowledgeBase::default();

    // Minimum encoded sizes: every fixed field plus an empty string or
    // list (a 4-byte count) wherever one is variable.
    let n_types = records(&mut c, "type", 17)?;
    kb.types.reserve_exact(n_types);
    for i in 0..n_types {
        let id = c.u32()?;
        check_id("type", id, i)?;
        kb.types.push(TypeInfo {
            id: TypeId(id),
            name: c.string(MAX_STR)?,
            coarse: coarse_from(c.u8()?)?,
            affordance_tokens: read_strings(&mut c)?,
            adoption_weight: c.f32()?,
        });
    }

    let n_rels = records(&mut c, "relation", 16)?;
    kb.relations.reserve_exact(n_rels);
    for i in 0..n_rels {
        let id = c.u32()?;
        check_id("relation", id, i)?;
        kb.relations.push(RelationInfo {
            id: RelationId(id),
            name: c.string(MAX_STR)?,
            cue_tokens: read_strings(&mut c)?,
            adoption_weight: c.f32()?,
        });
    }

    let n_ents = records(&mut c, "entity", 32)?;
    kb.entities.reserve_exact(n_ents);
    for i in 0..n_ents {
        let id = c.u32()?;
        check_id("entity", id, i)?;
        let title_tokens = read_strings(&mut c)?;
        let types = c.u32s(MAX_STR)?;
        for &t in &types {
            check_ref("type", t, n_types)?;
        }
        let relations = c.u32s(MAX_STR)?;
        for &r in &relations {
            check_ref("relation", r, n_rels)?;
        }
        let coarse = coarse_from(c.u8()?)?;
        let gender = match c.u8()? {
            0 => None,
            1 => Some(Gender::Male),
            2 => Some(Gender::Female),
            g => return Err(schema(format!("gender tag {g} out of range"))),
        };
        // Alias back-references are validated after aliases are decoded
        // (the alias table comes later in the payload).
        let aliases = c.u32s(MAX_RECORDS)?;
        let cue_tokens = read_strings(&mut c)?;
        let popularity = c.f32()?;
        let year = match c.u8()? {
            0 => None,
            1 => {
                let y = c.u32()?;
                Some(
                    u16::try_from(y)
                        .map_err(|_| schema(format!("year {y} out of u16 range")))?,
                )
            }
            t => return Err(schema(format!("year tag {t} out of range"))),
        };
        let parent = match c.u8()? {
            0 => None,
            1 => {
                let p = c.u32()?;
                check_ref("parent entity", p, n_ents)?;
                Some(EntityId(p))
            }
            t => return Err(schema(format!("parent tag {t} out of range"))),
        };
        kb.entities.push(Entity {
            id: EntityId(id),
            title_tokens,
            types: types.into_iter().map(TypeId).collect(),
            relations: relations.into_iter().map(RelationId).collect(),
            coarse,
            gender,
            aliases: aliases.into_iter().map(AliasId).collect(),
            cue_tokens,
            popularity,
            year,
            parent,
        });
    }

    let n_aliases = records(&mut c, "alias", 12)?;
    kb.aliases.reserve_exact(n_aliases);
    for i in 0..n_aliases {
        let id = c.u32()?;
        check_id("alias", id, i)?;
        let surface = c.string(MAX_STR)?;
        let candidates = c.u32s(MAX_RECORDS)?;
        for &e in &candidates {
            check_ref("candidate entity", e, n_ents)?;
        }
        kb.aliases.push(AliasInfo {
            id: AliasId(id),
            surface,
            candidates: candidates.into_iter().map(EntityId).collect(),
        });
    }
    for e in &kb.entities {
        for a in &e.aliases {
            check_ref("alias", a.0, n_aliases)?;
        }
    }

    let n_edges = records(&mut c, "edge", 12)?;
    kb.edges.reserve_exact(n_edges);
    for _ in 0..n_edges {
        let (s, o, r) = (c.u32()?, c.u32()?, c.u32()?);
        check_ref("edge subject", s, n_ents)?;
        check_ref("edge object", o, n_ents)?;
        check_ref("edge relation", r, n_rels)?;
        kb.edges.push((EntityId(s), EntityId(o), RelationId(r)));
    }

    c.finish()?;
    kb.finalize();
    Ok(kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, KbConfig};

    fn small_kb() -> KnowledgeBase {
        generate(&KbConfig { n_entities: 120, n_types: 24, n_relations: 12, ..KbConfig::micro(7) })
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let kb = small_kb();
        let bytes = encode(&kb);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.entities.len(), kb.entities.len());
        assert_eq!(back.types.len(), kb.types.len());
        assert_eq!(back.relations.len(), kb.relations.len());
        assert_eq!(back.aliases.len(), kb.aliases.len());
        assert_eq!(back.edges, kb.edges);
        for (a, b) in kb.entities.iter().zip(&back.entities) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.title_tokens, b.title_tokens);
            assert_eq!(a.types, b.types);
            assert_eq!(a.relations, b.relations);
            assert_eq!(a.coarse, b.coarse);
            assert_eq!(a.gender, b.gender);
            assert_eq!(a.aliases, b.aliases);
            assert_eq!(a.cue_tokens, b.cue_tokens);
            assert_eq!(a.popularity.to_bits(), b.popularity.to_bits());
            assert_eq!(a.year, b.year);
            assert_eq!(a.parent, b.parent);
        }
        for (a, b) in kb.aliases.iter().zip(&back.aliases) {
            assert_eq!(a.surface, b.surface);
            assert_eq!(a.candidates, b.candidates);
        }
        // Derived indexes were rebuilt by finalize().
        for a in &kb.aliases {
            assert_eq!(back.alias_by_surface(&a.surface), Some(a.id));
        }
        for &(s, o, r) in &kb.edges {
            assert_eq!(back.connected(s, o), Some(r));
        }
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(encode(&small_kb()), encode(&small_kb()));
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        let bytes = encode(&small_kb());
        for frac in [0, 1, 7, 100, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..frac]).is_err(), "len {frac}");
        }
    }

    #[test]
    fn dangling_reference_is_typed_error() {
        let kb = small_kb();
        let mut broken = kb.clone();
        broken.edges.push((EntityId(u32::MAX), EntityId(0), RelationId(0)));
        let bytes = encode(&broken);
        assert!(matches!(decode(&bytes), Err(FrozenError::SectionSchema { .. })));
    }
}
