//! The flat `Vocab` against a `HashMap<String, u32>` + `Vec<String>`
//! reference. Words are drawn from a tiny alphabet with multi-byte UTF-8
//! pieces and the empty word, so duplicates are common.

use bootleg_corpus::Vocab;
use proptest::prelude::*;
use std::collections::HashMap;

const PIECES: [&str; 5] = ["a", "b", "é", "日", "ab"];

fn word_strategy() -> impl Strategy<Value = String> {
    collection::vec(0usize..PIECES.len(), 0..4)
        .prop_map(|ps| ps.into_iter().map(|p| PIECES[p]).collect())
}

/// The reference map, or `None` on the first duplicate.
fn reference(words: &[String]) -> Option<HashMap<String, u32>> {
    let mut map = HashMap::new();
    for (i, w) in words.iter().enumerate() {
        if map.insert(w.clone(), i as u32).is_some() {
            return None;
        }
    }
    Some(map)
}

/// Every query of `v` agrees with the reference `(map, words)`.
fn assert_matches(v: &Vocab, map: &HashMap<String, u32>, words: &[String]) {
    assert_eq!(v.len(), words.len());
    assert_eq!(v.is_empty(), words.is_empty());
    assert!(v.words().eq(words.iter().map(String::as_str)));
    for (i, w) in words.iter().enumerate() {
        assert_eq!(v.word(i as u32), w);
        assert_eq!(v.get_word(i as u32), Some(w.as_str()));
    }
    assert_eq!(v.get_word(words.len() as u32), None);
    assert_eq!(v.get_word(u32::MAX), None);
    for probe in ["", "a", "b", "é", "日", "ab", "aé", "ba", "abab", "zz"] {
        assert_eq!(v.contains(probe), map.contains_key(probe), "{probe:?}");
        assert_eq!(v.id(probe), map.get(probe).copied().unwrap_or(0), "{probe:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn from_words_matches_hash_reference(words in collection::vec(word_strategy(), 0..12)) {
        match (Vocab::from_words(words.clone()), reference(&words)) {
            (Some(v), Some(map)) => assert_matches(&v, &map, &words),
            (None, None) => {}
            (got, want) => panic!(
                "from_words gave {:?}, reference {:?} for {words:?}",
                got.map(|v| v.len()),
                want.map(|m| m.len())
            ),
        }
    }

    #[test]
    fn intern_matches_hash_reference(seq in collection::vec(word_strategy(), 0..40)) {
        let (mut v, mut map, mut words) = (Vocab::default(), HashMap::new(), Vec::new());
        for w in &seq {
            let want = *map.entry(w.clone()).or_insert_with(|| {
                words.push(w.clone());
                words.len() as u32 - 1
            });
            prop_assert_eq!(v.intern(w), want, "{:?}", w);
        }
        assert_matches(&v, &map, &words);
        // Re-interning every word changes nothing.
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(v.intern(w), i as u32);
        }
        assert_matches(&v, &map, &words);
    }
}

#[test]
fn duplicate_word_gives_none() {
    let words = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    assert!(Vocab::from_words(words(&["a", "b", "a"])).is_none());
    assert!(Vocab::from_words(words(&["", ""])).is_none());
    assert_eq!(Vocab::from_words(words(&["a", "", "é"])).map(|v| v.len()), Some(3));
}
