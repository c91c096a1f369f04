//! Token vocabulary shared by the corpus, the models, and candidate
//! generation.

use bootleg_kb::idtable::IdTable;
use bootleg_kb::KnowledgeBase;

/// Function words available to sentence templates.
pub const FUNCTION_WORDS: [&str; 22] = [
    "the", "a", "is", "was", "in", "of", "and", "or", "he", "she", "with", "at", "for", "near",
    "famous", "new", "old", "today", "first", "last", "its", "their",
];

/// Number of generic noise tokens (`w0`, `w1`, …).
pub const NOISE_TOKENS: usize = 200;

/// Special separator token used when flattening documents (AIDA-style
/// title ⧺ SEP ⧺ sentence, §4.2).
pub const SEP: &str = "[sep]";

/// Unknown-token fallback.
pub const UNK: &str = "[unk]";

/// A bidirectional string ↔ id token map, stored flat: every word's UTF-8
/// bytes back to back in one buffer, a `u32` end offset per id, and an
/// [`IdTable`] of ids keyed by the words in that buffer. The map is three
/// heap blocks however many words it holds.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    /// All words in id order, concatenated.
    text: String,
    /// `ends[i]` is where word `i` ends in `text` (word `i - 1` ends where
    /// it starts).
    ends: Vec<u32>,
    index: IdTable,
}

impl Vocab {
    /// Builds the full vocabulary for a knowledge base: special tokens,
    /// function words, noise tokens, and every KB-derived token (alias
    /// surfaces, entity cues and titles, type affordances, relation cues).
    pub fn build(kb: &KnowledgeBase) -> Self {
        let mut v = Vocab::default();
        v.intern(UNK);
        v.intern(SEP);
        for w in FUNCTION_WORDS {
            v.intern(w);
        }
        for i in 0..NOISE_TOKENS {
            v.intern(&format!("w{i}"));
        }
        for t in &kb.types {
            for a in &t.affordance_tokens {
                v.intern(a);
            }
        }
        for r in &kb.relations {
            for c in &r.cue_tokens {
                v.intern(c);
            }
        }
        for a in &kb.aliases {
            v.intern(&a.surface);
        }
        for e in &kb.entities {
            for c in &e.cue_tokens {
                v.intern(c);
            }
            for t in &e.title_tokens {
                v.intern(t);
            }
        }
        v
    }

    /// A builder for a vocabulary read in id order, with room for `words`
    /// words of `text_bytes` bytes in all.
    pub fn builder(words: usize, text_bytes: usize) -> VocabBuilder {
        VocabBuilder { text: String::with_capacity(text_bytes), ends: Vec::with_capacity(words) }
    }

    /// Rebuilds a vocabulary from its id-ordered word list. `None` if any
    /// word repeats: token ids must stay dense and unique, or every
    /// downstream id lookup would silently shift.
    pub fn from_words(words: Vec<String>) -> Option<Self> {
        let mut b = Vocab::builder(words.len(), words.iter().map(String::len).sum());
        for w in &words {
            b.push(w);
        }
        b.finish()
    }

    /// Interns a token, returning its id.
    ///
    /// # Panics
    ///
    /// If the words would exceed 4 GiB of text or `u32::MAX - 1` ids.
    pub fn intern(&mut self, word: &str) -> u32 {
        let id = u32::try_from(self.ends.len()).expect("vocabulary ids fit in u32");
        let (text, ends) = (&self.text, &self.ends);
        if let Some(known) = self.index.insert(word, id, |i| word_at(text, ends, i)) {
            return known;
        }
        push_word(&mut self.text, &mut self.ends, word);
        id
    }

    /// The id-ordered word list (the freeze path's serialization source).
    pub fn words(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.ends.len() as u32).map(|i| self.word(i))
    }

    fn lookup(&self, word: &str) -> Option<u32> {
        self.index.get(word, |i| word_at(&self.text, &self.ends, i))
    }

    /// The id of a token, or the UNK id if absent.
    pub fn id(&self, word: &str) -> u32 {
        self.lookup(word).unwrap_or(0)
    }

    /// `true` if the exact token is known.
    pub fn contains(&self, word: &str) -> bool {
        self.lookup(word).is_some()
    }

    /// The surface string of a token id.
    ///
    /// # Panics
    ///
    /// If `id` is outside the vocabulary (see [`Vocab::get_word`]).
    pub fn word(&self, id: u32) -> &str {
        self.get_word(id).unwrap_or_else(|| {
            panic!("token id {id} outside a {}-word vocabulary", self.len())
        })
    }

    /// The surface string of a token id, or `None` when the id is outside
    /// the vocabulary (checked counterpart of [`Vocab::word`] for
    /// request-supplied token streams on the inference path).
    pub fn get_word(&self, id: u32) -> Option<&str> {
        ((id as usize) < self.ends.len()).then(|| word_at(&self.text, &self.ends, id))
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if empty (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Encodes a whitespace-free token sequence.
    pub fn encode(&self, words: &[&str]) -> Vec<u32> {
        words.iter().map(|w| self.id(w)).collect()
    }

    /// Decodes ids back to a readable string (diagnostics).
    pub fn decode(&self, ids: &[u32]) -> String {
        ids.iter().map(|&i| self.word(i)).collect::<Vec<_>>().join(" ")
    }
}

/// A vocabulary being read in id order: each word is appended to the flat
/// text, and the index is built once, in bulk, by [`VocabBuilder::finish`].
/// The frozen-artifact thaw fills one straight from the section bytes.
#[derive(Debug)]
pub struct VocabBuilder {
    text: String,
    ends: Vec<u32>,
}

impl VocabBuilder {
    /// Appends `word` under the next id.
    ///
    /// # Panics
    ///
    /// If the words would exceed 4 GiB of text.
    pub fn push(&mut self, word: &str) {
        push_word(&mut self.text, &mut self.ends, word);
    }

    /// The vocabulary, or `None` if a word was pushed twice.
    pub fn finish(self) -> Option<Vocab> {
        let VocabBuilder { text, ends } = self;
        let ids = 0..u32::try_from(ends.len()).ok()?;
        let (index, repeats) = IdTable::build(ids, |i| word_at(&text, &ends, i));
        (repeats == 0).then_some(Vocab { text, ends, index })
    }
}

fn push_word(text: &mut String, ends: &mut Vec<u32>, word: &str) {
    text.push_str(word);
    ends.push(u32::try_from(text.len()).expect("vocabulary text fits in 4 GiB"));
}

/// Word `id` of a flat vocabulary; `id` must be below `ends.len()`.
fn word_at<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    let i = id as usize;
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &text[start..ends[i] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_kb::{generate, KbConfig};

    #[test]
    fn build_covers_kb_tokens() {
        let kb = generate(&KbConfig { n_entities: 100, seed: 2, ..KbConfig::default() });
        let v = Vocab::build(&kb);
        assert!(v.contains("the"));
        assert!(v.contains("w0"));
        assert!(v.contains("ent0"));
        for a in &kb.aliases {
            assert!(v.contains(&a.surface), "alias {} missing", a.surface);
        }
        for e in &kb.entities {
            for c in &e.cue_tokens {
                assert!(v.contains(c));
            }
        }
    }

    #[test]
    fn unk_is_zero_and_returned_for_unknown() {
        let kb = generate(&KbConfig { n_entities: 10, seed: 2, ..KbConfig::default() });
        let v = Vocab::build(&kb);
        assert_eq!(v.id(UNK), 0);
        assert_eq!(v.id("definitely-not-a-token"), 0);
    }

    #[test]
    fn roundtrip() {
        let kb = generate(&KbConfig { n_entities: 10, seed: 2, ..KbConfig::default() });
        let v = Vocab::build(&kb);
        let ids = v.encode(&["the", "ent3", "and"]);
        assert_eq!(v.decode(&ids), "the ent3 and");
    }

    #[test]
    fn intern_is_idempotent() {
        let kb = generate(&KbConfig { n_entities: 10, seed: 2, ..KbConfig::default() });
        let mut v = Vocab::build(&kb);
        let before = v.len();
        let a = v.intern("the");
        assert_eq!(v.len(), before);
        assert_eq!(a, v.id("the"));
    }
}
