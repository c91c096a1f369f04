//! An open-addressing index from string keys to dense `u32` ids.
//!
//! The index stores ids only, never the strings: every lookup is handed a
//! `key_of(id)` accessor into storage the caller already owns (the flat
//! vocabulary text, the alias records). Building one from `n` keys is one
//! slot array and no per-key allocation, where a `HashMap<String, u32>`
//! would clone every key into its own heap block.
//!
//! Keys are hashed with a per-table [`RandomState`], exactly as `HashMap`
//! does, so crafted keys cannot force long probe chains any more than they
//! can in a `HashMap`. Each slot keeps the low 32 bits of its key's hash
//! next to the id: probing compares those first, and growing the table
//! re-places entries without rehashing a key.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An id of `EMPTY` marks a free slot, so ids must stay below it.
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u32,
    hash: u32,
}

const FREE: Slot = Slot { id: EMPTY, hash: 0 };

/// A string → `u32` id index over keys stored elsewhere. Linear probing in
/// a power-of-two slot array kept at most half full.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    slots: Vec<Slot>,
    len: usize,
    hasher: RandomState,
}

impl IdTable {
    /// An empty table sized for `n` keys without growing.
    fn with_capacity(n: usize) -> Self {
        Self { slots: vec![FREE; Self::slots_for(n)], len: 0, hasher: RandomState::new() }
    }

    fn slots_for(n: usize) -> usize {
        n.saturating_mul(2).next_power_of_two().max(8)
    }

    fn hash(&self, key: &str) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// The slot holding `key`, or the free slot where it would go.
    fn probe<'k>(&self, key: &str, hash: u32, key_of: impl Fn(u32) -> &'k str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY || (s.hash == hash && key_of(s.id) == key) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The id indexed under `key`; `key_of` returns the key of an indexed id.
    pub fn get<'k>(&self, key: &str, key_of: impl Fn(u32) -> &'k str) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let id = self.slots[self.probe(key, self.hash(key), key_of)].id;
        (id != EMPTY).then_some(id)
    }

    /// A table over `ids`, each indexed under `key_of(id)` unless an
    /// earlier id in `ids` has the same key. Returns the table and how many
    /// ids were left out that way.
    ///
    /// # Panics
    ///
    /// If an id is `u32::MAX`, the free-slot marker.
    pub fn build<'k, I>(ids: I, key_of: impl Fn(u32) -> &'k str) -> (Self, usize)
    where
        I: ExactSizeIterator<Item = u32> + Clone,
    {
        let mut t = Self::with_capacity(ids.len());
        // Hash every key first. A placement loop with no hashing in it is
        // short enough for the CPU to overlap the cache misses of successive
        // placements, which halves the build of a table larger than L2.
        let hashes: Vec<u32> = ids.clone().map(|id| t.hash(key_of(id))).collect();
        let mut left_out = 0;
        for (id, hash) in ids.zip(hashes) {
            assert_ne!(id, EMPTY, "id {EMPTY} is reserved for free slots");
            let i = t.probe(key_of(id), hash, &key_of);
            if t.slots[i].id == EMPTY {
                t.slots[i] = Slot { id, hash };
                t.len += 1;
            } else {
                left_out += 1;
            }
        }
        (t, left_out)
    }

    /// Indexes `id` under `key` unless the key is already present: then the
    /// table is unchanged and the id already there is returned. `key_of`
    /// returns the key of an indexed id (the new `id` is never asked for).
    ///
    /// # Panics
    ///
    /// If `id` is `u32::MAX`, the free-slot marker.
    pub fn insert<'k>(
        &mut self,
        key: &str,
        id: u32,
        key_of: impl Fn(u32) -> &'k str,
    ) -> Option<u32> {
        assert_ne!(id, EMPTY, "id {EMPTY} is reserved for free slots");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = self.hash(key);
        let i = self.probe(key, hash, key_of);
        if self.slots[i].id != EMPTY {
            return Some(self.slots[i].id);
        }
        self.slots[i] = Slot { id, hash };
        self.len += 1;
        None
    }

    /// Doubles the slot array (or makes the first one), re-placing every
    /// entry by its stored hash.
    fn grow(&mut self) {
        let n = Self::slots_for(self.len + 1).max(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, vec![FREE; n]);
        let mask = n - 1;
        for s in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = s.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_first_key_wins() {
        let keys = ["a", "bb", "", "a", "ccc", "bb"];
        let mut t = IdTable::default();
        let mut owners = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let had = t.insert(k, i as u32, |id| keys[id as usize]);
            owners.push(had.unwrap_or(i as u32));
        }
        assert_eq!(owners, [0, 1, 2, 0, 4, 1]);
        assert_eq!(t.len, 4);
        for (k, want) in [("a", Some(0)), ("bb", Some(1)), ("", Some(2)), ("ccc", Some(4))] {
            assert_eq!(t.get(k, |id| keys[id as usize]), want, "{k:?}");
        }
        assert_eq!(t.get("zz", |id| keys[id as usize]), None);
        assert_eq!(IdTable::default().get("a", |_| unreachable!()), None);
    }

    #[test]
    fn build_keeps_the_first_id_of_a_key() {
        let keys = ["a", "bb", "", "a", "ccc", "bb"];
        let key_of = |id: u32| keys[id as usize];
        let (t, left_out) = IdTable::build(0..keys.len() as u32, key_of);
        assert_eq!((t.len, left_out), (4, 2));
        assert_eq!([t.get("a", key_of), t.get("bb", key_of)], [Some(0), Some(1)]);
        let (t, _) = IdTable::build((0..keys.len() as u32).rev(), key_of);
        assert_eq!([t.get("a", key_of), t.get("bb", key_of)], [Some(3), Some(5)]);
        assert_eq!(t.get("", key_of), Some(2));
        assert_eq!(t.get("zz", key_of), None);
    }

    #[test]
    fn growth_keeps_every_key() {
        let keys: Vec<String> = (0..5000).map(|i| format!("k{i}")).collect();
        let mut t = IdTable::with_capacity(3);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.insert(k, i as u32, |id| &keys[id as usize]), None);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k, |id| &keys[id as usize]), Some(i as u32));
        }
        assert!(t.slots.len() >= 2 * keys.len());
    }
}
