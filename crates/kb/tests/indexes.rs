//! The KB's lookup indexes (CSR adjacency, alias surface index) against a
//! reference built the way `finalize` built them before: a `HashMap` over
//! both orderings of every edge collected in `edges` order, one `HashSet`
//! of neighbors per entity, and a `HashMap` collected from the aliases.
//! The random KBs are small and dense, so duplicate, reversed and
//! self-loop edges with differing relations, and repeated alias surfaces,
//! come up in nearly every case.

use bootleg_kb::{AliasId, AliasInfo, CoarseType, Entity, EntityId, KnowledgeBase, RelationId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The indexes as the old `finalize` built them, queried the old way.
struct Reference {
    edge_set: HashMap<(u32, u32), RelationId>,
    alias_by_surface: HashMap<String, AliasId>,
    neighbor_sets: Vec<HashSet<u32>>,
}

impl Reference {
    fn new(kb: &KnowledgeBase) -> Self {
        let edge_set =
            kb.edges.iter().flat_map(|&(a, b, r)| [((a.0, b.0), r), ((b.0, a.0), r)]).collect();
        let alias_by_surface = kb.aliases.iter().map(|a| (a.surface.clone(), a.id)).collect();
        let mut neighbor_sets = vec![HashSet::new(); kb.entities.len()];
        for &(a, b, _) in &kb.edges {
            neighbor_sets[a.idx()].insert(b.0);
            neighbor_sets[b.idx()].insert(a.0);
        }
        Self { edge_set, alias_by_surface, neighbor_sets }
    }

    fn connected(&self, a: EntityId, b: EntityId) -> Option<RelationId> {
        self.edge_set.get(&(a.0, b.0)).copied()
    }

    fn two_hop_connected(&self, a: EntityId, b: EntityId) -> bool {
        if self.connected(a, b).is_some() {
            return false;
        }
        let (na, nb) = (&self.neighbor_sets[a.idx()], &self.neighbor_sets[b.idx()]);
        na.iter().any(|n| nb.contains(n))
    }

    fn adjacency(&self, candidates: &[EntityId]) -> Vec<f32> {
        let n = candidates.len();
        let mut k = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j && self.connected(candidates[i], candidates[j]).is_some() {
                    k[i * n + j] = 1.0;
                }
            }
        }
        k
    }
}

fn entity(i: u32) -> Entity {
    Entity {
        id: EntityId(i),
        title_tokens: vec![],
        types: vec![],
        relations: vec![],
        coarse: CoarseType::Misc,
        gender: None,
        aliases: vec![],
        cue_tokens: vec![],
        popularity: 1.0,
        year: None,
        parent: None,
    }
}

const SURFACES: [&str; 6] = ["lincoln", "paris", "", "jordan", "é", "paris "];

/// A finalized KB of `n` entities. Edge kind 0 is a plain edge, 1 a
/// self-loop, 2 an edge followed by its reverse under the next relation.
fn kb_from(n: u32, edges: &[(u32, u32, u32, u8)], surfaces: &[usize]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::default();
    kb.entities = (0..n).map(entity).collect();
    for &(a, b, r, kind) in edges {
        let (a, b) = (EntityId(a % n), EntityId(b % n));
        match kind {
            0 => kb.edges.push((a, b, RelationId(r))),
            1 => kb.edges.push((a, a, RelationId(r))),
            _ => {
                kb.edges.push((a, b, RelationId(r)));
                kb.edges.push((b, a, RelationId((r + 1) % 4)));
            }
        }
    }
    for (i, &s) in surfaces.iter().enumerate() {
        kb.aliases.push(AliasInfo {
            id: AliasId(i as u32),
            surface: SURFACES[s].to_string(),
            candidates: vec![EntityId(i as u32 % n)],
        });
    }
    kb.finalize();
    kb
}

fn kb_strategy() -> impl Strategy<Value = KnowledgeBase> {
    (
        1u32..14,
        collection::vec((0u32..14, 0u32..14, 0u32..4, 0u8..3), 0..60),
        collection::vec(0usize..SURFACES.len(), 0..16),
    )
        .prop_map(|(n, edges, surfaces)| kb_from(n, &edges, &surfaces))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn csr_adjacency_matches_hash_reference(kb in kb_strategy()) {
        let reference = Reference::new(&kb);
        let n = kb.num_entities() as u32;
        for a in (0..n).map(EntityId) {
            for b in (0..n).map(EntityId) {
                prop_assert_eq!(kb.connected(a, b), reference.connected(a, b), "{:?}-{:?}", a, b);
                prop_assert_eq!(
                    kb.two_hop_connected(a, b),
                    reference.two_hop_connected(a, b),
                    "{:?}-{:?}",
                    a,
                    b
                );
            }
        }
        // Candidate lists in several orders, with repeats.
        let all: Vec<EntityId> = (0..n).map(EntityId).collect();
        let rev: Vec<EntityId> = all.iter().rev().copied().collect();
        let repeated: Vec<EntityId> = all.iter().chain(&all).step_by(3).copied().collect();
        for cands in [all, rev, repeated] {
            prop_assert_eq!(kb.adjacency(&cands), reference.adjacency(&cands));
        }
    }

    #[test]
    fn alias_index_matches_hash_reference(kb in kb_strategy()) {
        let reference = Reference::new(&kb);
        for s in SURFACES.iter().chain(&["nope", "lincoln "]) {
            let want = reference.alias_by_surface.get(*s).copied();
            prop_assert_eq!(kb.alias_by_surface(s), want, "{:?}", s);
        }
    }
}

#[test]
fn last_edge_of_a_pair_wins_in_both_directions() {
    let edges = [(0, 1, 0, 0), (1, 0, 2, 0), (0, 1, 3, 0), (2, 2, 1, 1), (2, 2, 0, 1)];
    let kb = kb_from(3, &edges, &[]);
    for (a, b) in [(0, 1), (1, 0)] {
        assert_eq!(kb.connected(EntityId(a), EntityId(b)), Some(RelationId(3)));
    }
    assert_eq!(kb.connected(EntityId(2), EntityId(2)), Some(RelationId(0)));
    assert_eq!(kb.connected(EntityId(0), EntityId(0)), None);
    assert_eq!(kb.connected(EntityId(0), EntityId(9)), None, "ids past the KB are unconnected");
    assert!(!kb.two_hop_connected(EntityId(0), EntityId(9)));
}
