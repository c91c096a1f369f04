//! The assembled knowledge base and its query surface.
//!
//! Bootleg consumes structured knowledge through exactly four interfaces
//! (§3.1–3.2): entity → types, entity → relations, alias → candidates, and a
//! pairwise KG adjacency. This module provides all four.

use crate::entity::{AliasInfo, Entity, RelationInfo, TypeInfo};
use crate::idtable::IdTable;
use crate::ids::{AliasId, EntityId, RelationId, TypeId};
use std::collections::HashSet;

/// An in-memory knowledge base.
#[derive(Clone, Debug, Default)]
pub struct KnowledgeBase {
    /// All entities, indexed by [`EntityId`].
    pub entities: Vec<Entity>,
    /// All fine-grained types, indexed by [`TypeId`].
    pub types: Vec<TypeInfo>,
    /// All relations, indexed by [`RelationId`].
    pub relations: Vec<RelationInfo>,
    /// All aliases, indexed by [`AliasId`].
    pub aliases: Vec<AliasInfo>,
    /// Directed KG triples `(subject, object, relation)`.
    pub edges: Vec<(EntityId, EntityId, RelationId)>,
    /// Undirected adjacency in compressed-sparse-row form, built by
    /// [`KnowledgeBase::finalize`]: entity `e`'s neighbors are
    /// `adj[adj_start[e]..adj_start[e + 1]]`, one `(neighbor, relation)`
    /// per distinct neighbor, sorted by neighbor. The relation is that of
    /// the last edge in `edges` order joining the pair, in either
    /// direction; a self-loop lists the entity as its own neighbor once.
    adj_start: Vec<u32>,
    adj: Vec<(u32, RelationId)>,
    /// Surface → alias index over `aliases[i].surface` (ids are positions
    /// in `aliases`); the last alias with a surface owns it.
    alias_index: IdTable,
}

impl KnowledgeBase {
    /// Builds the lookup indexes after the record vectors are filled.
    pub fn finalize(&mut self) {
        let n = self.entities.len();
        // Each edge goes into both endpoint rows (a self-loop into one),
        // tagged with its position in `edges`.
        let mut start = vec![0u32; n + 1];
        for &(a, b, _) in &self.edges {
            start[a.idx() + 1] += 1;
            if a != b {
                start[b.idx() + 1] += 1;
            }
        }
        for e in 0..n {
            start[e + 1] += start[e];
        }
        let mut fill = start.clone();
        let mut tagged = vec![(0u32, 0u32); start[n] as usize];
        for (k, &(a, b, _)) in self.edges.iter().enumerate() {
            let mut put = |row: EntityId, nbr: EntityId| {
                tagged[fill[row.idx()] as usize] = (nbr.0, k as u32);
                fill[row.idx()] += 1;
            };
            put(a, b);
            if a != b {
                put(b, a);
            }
        }
        // Sort each row by (neighbor, edge position) and keep the last
        // entry of every neighbor run: the pair's last edge wins.
        self.adj = Vec::with_capacity(tagged.len());
        self.adj_start = Vec::with_capacity(n + 1);
        self.adj_start.push(0);
        for e in 0..n {
            let row = &mut tagged[start[e] as usize..start[e + 1] as usize];
            row.sort_unstable();
            for (i, &(nbr, k)) in row.iter().enumerate() {
                if row.get(i + 1).is_none_or(|next| next.0 != nbr) {
                    self.adj.push((nbr, self.edges[k as usize].2));
                }
            }
            self.adj_start.push(self.adj.len() as u32);
        }

        // Reverse order, first id of a key kept: the last alias with a
        // surface owns it.
        let aliases = &self.aliases;
        let ids = (0..aliases.len() as u32).rev();
        self.alias_index = IdTable::build(ids, |i| &aliases[i as usize].surface).0;
    }

    /// The `(neighbor, relation)` row of an entity, sorted by neighbor;
    /// empty for an id outside the KB or before [`KnowledgeBase::finalize`].
    fn adjacent(&self, e: EntityId) -> &[(u32, RelationId)] {
        match (self.adj_start.get(e.idx()), self.adj_start.get(e.idx() + 1)) {
            (Some(&lo), Some(&hi)) => &self.adj[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// The entity record for `id`.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.idx()]
    }

    /// The type record for `id`.
    pub fn type_info(&self, id: TypeId) -> &TypeInfo {
        &self.types[id.idx()]
    }

    /// The relation record for `id`.
    pub fn relation_info(&self, id: RelationId) -> &RelationInfo {
        &self.relations[id.idx()]
    }

    /// The alias record for `id`.
    pub fn alias(&self, id: AliasId) -> &AliasInfo {
        &self.aliases[id.idx()]
    }

    /// Looks up an alias by surface form.
    pub fn alias_by_surface(&self, surface: &str) -> Option<AliasId> {
        let aliases = &self.aliases;
        let i = self.alias_index.get(surface, |j| &aliases[j as usize].surface)?;
        Some(aliases[i as usize].id)
    }

    /// The relation connecting two entities in the KG, if any (undirected).
    pub fn connected(&self, a: EntityId, b: EntityId) -> Option<RelationId> {
        let row = self.adjacent(a);
        row.binary_search_by_key(&b.0, |&(n, _)| n).ok().map(|i| row[i].1)
    }

    /// Builds the candidate-pairwise adjacency matrix `K` (row-major,
    /// `n × n`, 1.0 where connected) the KG2Ent module consumes.
    pub fn adjacency(&self, candidates: &[EntityId]) -> Vec<f32> {
        let n = candidates.len();
        let mut k = vec![0.0f32; n * n];
        // Every edge sits in both endpoint rows (see `finalize`), so
        // connectivity is symmetric: look each unordered pair up once and
        // write both cells.
        for i in 0..n {
            for j in i + 1..n {
                if self.connected(candidates[i], candidates[j]).is_some() {
                    k[i * n + j] = 1.0;
                    k[j * n + i] = 1.0;
                }
            }
        }
        k
    }

    /// `true` if either entity is a KG subclass (parent/child) of the other —
    /// the paper's granularity-error relation.
    pub fn is_granularity_pair(&self, a: EntityId, b: EntityId) -> bool {
        self.entity(a).parent == Some(b) || self.entity(b).parent == Some(a)
    }

    /// `true` if two entities share at least one fine-grained type.
    pub fn share_type(&self, a: EntityId, b: EntityId) -> bool {
        let ta: HashSet<TypeId> = self.entity(a).types.iter().copied().collect();
        self.entity(b).types.iter().any(|t| ta.contains(t))
    }

    /// Two-hop connectivity: `a` and `b` are not directly linked but share a
    /// common KG neighbor (the paper's multi-hop error analysis, §5).
    pub fn two_hop_connected(&self, a: EntityId, b: EntityId) -> bool {
        if self.connected(a, b).is_some() {
            return false;
        }
        // Merge the two sorted rows, stopping at the first shared neighbor.
        let (mut x, mut y) = (self.adjacent(a).iter(), self.adjacent(b).iter());
        let (mut p, mut q) = (x.next(), y.next());
        while let (Some(&(m, _)), Some(&(n, _))) = (p, q) {
            match m.cmp(&n) {
                std::cmp::Ordering::Less => p = x.next(),
                std::cmp::Ordering::Greater => q = y.next(),
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CoarseType;

    fn tiny_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::default();
        for i in 0..4u32 {
            kb.entities.push(Entity {
                id: EntityId(i),
                title_tokens: vec![format!("ent{i}")],
                types: if i < 2 { vec![TypeId(0)] } else { vec![TypeId(1)] },
                relations: vec![],
                coarse: CoarseType::Misc,
                gender: None,
                aliases: vec![],
                cue_tokens: vec![],
                popularity: 1.0,
                year: None,
                parent: if i == 1 { Some(EntityId(0)) } else { None },
            });
        }
        kb.types.push(TypeInfo {
            id: TypeId(0),
            name: "t0".into(),
            coarse: CoarseType::Misc,
            affordance_tokens: vec![],
            adoption_weight: 1.0,
        });
        kb.types.push(TypeInfo {
            id: TypeId(1),
            name: "t1".into(),
            coarse: CoarseType::Misc,
            affordance_tokens: vec![],
            adoption_weight: 1.0,
        });
        kb.aliases.push(AliasInfo {
            id: AliasId(0),
            surface: "lincoln".into(),
            candidates: vec![EntityId(0), EntityId(1)],
        });
        kb.edges.push((EntityId(0), EntityId(2), RelationId(0)));
        kb.edges.push((EntityId(2), EntityId(3), RelationId(0)));
        kb.finalize();
        kb
    }

    #[test]
    fn connectivity_is_symmetric() {
        let kb = tiny_kb();
        assert!(kb.connected(EntityId(0), EntityId(2)).is_some());
        assert!(kb.connected(EntityId(2), EntityId(0)).is_some());
        assert!(kb.connected(EntityId(0), EntityId(3)).is_none());
    }

    #[test]
    fn adjacency_matrix_marks_pairs() {
        let kb = tiny_kb();
        let k = kb.adjacency(&[EntityId(0), EntityId(2), EntityId(1)]);
        assert_eq!(k[1], 1.0); // 0-2 connected
        assert_eq!(k[3], 1.0);
        assert_eq!(k[2], 0.0); // 0-1 not
        assert_eq!(k[0], 0.0); // diagonal clear
    }

    #[test]
    fn alias_lookup() {
        let kb = tiny_kb();
        let a = kb.alias_by_surface("lincoln").expect("alias");
        assert!(kb.alias(a).ambiguous());
        assert!(kb.alias_by_surface("nope").is_none());
    }

    #[test]
    fn granularity_pair_via_parent() {
        let kb = tiny_kb();
        assert!(kb.is_granularity_pair(EntityId(0), EntityId(1)));
        assert!(kb.is_granularity_pair(EntityId(1), EntityId(0)));
        assert!(!kb.is_granularity_pair(EntityId(0), EntityId(2)));
    }

    #[test]
    fn share_type_detection() {
        let kb = tiny_kb();
        assert!(kb.share_type(EntityId(0), EntityId(1)));
        assert!(!kb.share_type(EntityId(0), EntityId(2)));
    }

    #[test]
    fn two_hop_through_common_neighbor() {
        let kb = tiny_kb();
        // 0-2 and 2-3 edges exist, so 0 and 3 are two-hop connected.
        assert!(kb.two_hop_connected(EntityId(0), EntityId(3)));
        // Directly connected pairs are excluded.
        assert!(!kb.two_hop_connected(EntityId(0), EntityId(2)));
        // 1 has no edges at all.
        assert!(!kb.two_hop_connected(EntityId(1), EntityId(3)));
    }
}
