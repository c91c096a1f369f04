//! The generated inputs handed from `gen` to the measured process: corpus
//! sentences in a small length-prefixed little-endian format. The frozen
//! model travels separately as a BTFZ artifact.

use bootleg_corpus::{LabelKind, Mention, Pattern, Sentence};
use bootleg_kb::{AliasId, EntityId};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"BPBS";
const NO_ALIAS: u32 = u32::MAX;
/// Upper bound on any decoded length, so a damaged file fails cleanly
/// instead of driving a huge allocation.
const MAX_LEN: u32 = 1 << 24;

fn label_code(l: LabelKind) -> u8 {
    match l {
        LabelKind::Anchor => 0,
        LabelKind::Weak => 1,
        LabelKind::Unlabeled => 2,
    }
}

fn pattern_code(p: Pattern) -> u8 {
    match p {
        Pattern::Memorization => 0,
        Pattern::Consistency => 1,
        Pattern::KgRelation => 2,
        Pattern::Affordance => 3,
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("sentence file: {what}"))
}

/// Writes `sentences` to `path`.
pub fn write_sentences(path: &Path, sentences: &[Sentence]) -> io::Result<()> {
    std::fs::write(path, encode(sentences))
}

fn encode(sentences: &[Sentence]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let u32s = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
    u32s(&mut out, sentences.len() as u32);
    for s in sentences {
        u32s(&mut out, s.tokens.len() as u32);
        for &t in &s.tokens {
            u32s(&mut out, t);
        }
        u32s(&mut out, s.page.0);
        out.push(pattern_code(s.pattern));
        u32s(&mut out, s.mentions.len() as u32);
        for m in &s.mentions {
            u32s(&mut out, m.start as u32);
            u32s(&mut out, m.last as u32);
            u32s(&mut out, m.alias.map_or(NO_ALIAS, |a| a.0));
            u32s(&mut out, m.gold.0);
            out.push(label_code(m.label));
            u32s(&mut out, m.candidates.len() as u32);
            for c in &m.candidates {
                u32s(&mut out, c.0);
            }
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn u8(&mut self) -> io::Result<u8> {
        let (&b, rest) = self.buf.split_first().ok_or_else(|| bad("truncated"))?;
        self.buf = rest;
        Ok(b)
    }

    fn u32(&mut self) -> io::Result<u32> {
        if self.buf.len() < 4 {
            return Err(bad("truncated"));
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    fn len(&mut self) -> io::Result<usize> {
        let n = self.u32()?;
        if n > MAX_LEN {
            return Err(bad("length out of range"));
        }
        Ok(n as usize)
    }
}

/// Reads a file written by [`write_sentences`].
pub fn read_sentences(path: &Path) -> io::Result<Vec<Sentence>> {
    decode(&std::fs::read(path)?)
}

fn decode(bytes: &[u8]) -> io::Result<Vec<Sentence>> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let mut r = Reader { buf: &bytes[4..] };
    let n = r.len()?;
    let mut sentences = Vec::with_capacity(n);
    for _ in 0..n {
        let n_tokens = r.len()?;
        let tokens = (0..n_tokens)
            .map(|_| r.u32())
            .collect::<io::Result<Vec<u32>>>()?;
        let page = EntityId(r.u32()?);
        let pattern = match r.u8()? {
            0 => Pattern::Memorization,
            1 => Pattern::Consistency,
            2 => Pattern::KgRelation,
            3 => Pattern::Affordance,
            _ => return Err(bad("bad pattern code")),
        };
        let n_mentions = r.len()?;
        let mut mentions = Vec::with_capacity(n_mentions);
        for _ in 0..n_mentions {
            let start = r.u32()? as usize;
            let last = r.u32()? as usize;
            let alias = match r.u32()? {
                NO_ALIAS => None,
                a => Some(AliasId(a)),
            };
            let gold = EntityId(r.u32()?);
            let label = match r.u8()? {
                0 => LabelKind::Anchor,
                1 => LabelKind::Weak,
                2 => LabelKind::Unlabeled,
                _ => return Err(bad("bad label code")),
            };
            let n_cands = r.len()?;
            let candidates = (0..n_cands)
                .map(|_| r.u32().map(EntityId))
                .collect::<io::Result<Vec<_>>>()?;
            mentions.push(Mention {
                start,
                last,
                alias,
                gold,
                candidates,
                label,
            });
        }
        sentences.push(Sentence {
            tokens,
            mentions,
            page,
            pattern,
        });
    }
    if !r.buf.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(sentences)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_round_trip() {
        let s = Sentence {
            tokens: vec![3, 1, 4],
            mentions: vec![Mention {
                start: 0,
                last: 1,
                alias: Some(AliasId(7)),
                gold: EntityId(2),
                candidates: vec![EntityId(2), EntityId(9)],
                label: LabelKind::Weak,
            }],
            page: EntityId(5),
            pattern: Pattern::KgRelation,
        };
        let bytes = encode(std::slice::from_ref(&s));
        assert!(
            decode(&bytes[..bytes.len() - 1]).is_err(),
            "truncation is an error"
        );
        let back = decode(&bytes).expect("decode");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].tokens, s.tokens);
        assert_eq!(back[0].page, s.page);
        assert_eq!(back[0].pattern, s.pattern);
        let (m, n) = (&back[0].mentions[0], &s.mentions[0]);
        assert_eq!(
            (m.start, m.last, m.alias, m.gold),
            (n.start, n.last, n.alias, n.gold)
        );
        assert_eq!((&m.candidates, m.label), (&n.candidates, n.label));
    }
}
