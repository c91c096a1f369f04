//! Forward-pass fingerprints: the exact bits the model computes, pinned as
//! constants.
//!
//! * **Inference** — a CRC-32C over the score, mention-representation,
//!   candidate-representation and loss bits of 32 dev sentences, for every
//!   model variant and every architecture switch. Each configuration is run
//!   twice, as 32 one-example slices and as one 32-example slice; both must
//!   reproduce the same constant, so batch composition cannot move a bit.
//! * **Training** — the bits of every epoch loss plus a CRC-32C over all
//!   parameter values after [`train`] on a capped corpus, so dropout, the
//!   2-D entity mask and the gradient summation order are pinned too.
//!
//! On a mismatch the test fails listing the actual values of every
//! configuration that moved.

use bootleg_core::{
    train, BootlegConfig, BootlegModel, Example, ForwardOptions, ForwardOutput, ModelVariant,
    TrainConfig,
};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, KbConfig, KnowledgeBase};
use bootleg_tensor::checkpoint::crc32c;

/// Expected inference CRCs: `(configuration, inference(), inference() with
/// loss and candidate reprs)`.
const INFERENCE: &[(&str, u32, u32)] = &[
    ("full", 0xb1a458c2, 0x6774c986),
    ("ent_only", 0xe7725f24, 0x67881991),
    ("type_only", 0xa609d6bf, 0xf43dcbdd),
    ("kg_only", 0xa00d27a7, 0x584318a0),
    ("benchmark_two_hop", 0xeb2add23, 0x9a1937f3),
    ("no_ensemble_scoring", 0x326abf89, 0xf579661a),
    ("no_ent2ent", 0x726e0b28, 0xe4cda188),
    ("no_type_prediction", 0x2be1718c, 0x7ab28020),
    ("no_position_encoding", 0xbd33623d, 0xc0a72d2c),
];

/// Expected training fingerprints: `(configuration, epoch-loss bits,
/// parameter CRC)`.
const TRAINING: &[(&str, &[u32], u32)] = &[
    ("full", &[0x4053592e, 0x404bd05e], 0xccf2a352),
    ("ent_only", &[0x3f9f16b3, 0x3fafbd4f], 0xc235edda),
    ("kg_only", &[0x3f924168, 0x3fe2d1b0], 0x7c54baea),
    ("no_type_prediction", &[0x3f948bb4, 0x3fb2c217], 0x32109d5e),
    ("benchmark_two_hop_no_type_prediction", &[0x3f80b508, 0x3fa50d97], 0xa8dbd863),
];

fn setup() -> (KnowledgeBase, Corpus) {
    let kb = gen_kb(&KbConfig { n_entities: 300, seed: 97, ..KbConfig::default() });
    let c =
        generate_corpus(&kb, &CorpusConfig { n_pages: 80, seed: 97, ..CorpusConfig::default() });
    (kb, c)
}

/// The named configuration; `benchmark*` configurations get the
/// co-occurrence index their extra KG module needs.
fn model(kb: &KnowledgeBase, c: &Corpus, name: &str) -> BootlegModel {
    let d = BootlegConfig::default();
    let two_hop = BootlegConfig { kg_two_hop: true, ..d.clone().benchmark() };
    let cfg = match name {
        "full" => d,
        "ent_only" => d.with_variant(ModelVariant::EntOnly),
        "type_only" => d.with_variant(ModelVariant::TypeOnly),
        "kg_only" => d.with_variant(ModelVariant::KgOnly),
        "benchmark_two_hop" => two_hop,
        "benchmark_two_hop_no_type_prediction" => {
            BootlegConfig { type_prediction: false, ..two_hop }
        }
        "no_ensemble_scoring" => BootlegConfig { ensemble_scoring: false, ..d },
        "no_ent2ent" => BootlegConfig { use_ent2ent: false, ..d },
        "no_type_prediction" => BootlegConfig { type_prediction: false, ..d },
        "no_position_encoding" => BootlegConfig { position_encoding: false, ..d },
        other => panic!("unknown configuration {other}"),
    };
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let mut m = BootlegModel::new(kb, &c.vocab, &counts, cfg);
    if name.starts_with("benchmark") {
        m.set_cooccurrence(bootleg_core::cooccur::CooccurrenceIndex::build(&c.train, 2));
    }
    m
}

fn push_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    for x in xs {
        buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// CRC-32C over every output's bits, in example order.
fn outputs_crc(outs: &[ForwardOutput]) -> u32 {
    let mut buf = Vec::new();
    for out in outs {
        for s in &out.scores {
            push_f32s(&mut buf, s);
        }
        for r in &out.mention_reprs {
            push_f32s(&mut buf, r);
        }
        for r in out.candidate_reprs.iter().flatten() {
            push_f32s(&mut buf, r);
        }
        match &out.loss {
            Some(l) => push_f32s(&mut buf, &[l.value().item()]),
            None => buf.push(0xff),
        }
    }
    crc32c(&buf)
}

fn params_crc(m: &BootlegModel) -> u32 {
    let mut buf = Vec::new();
    for (_, p) in m.params.iter() {
        push_f32s(&mut buf, p.data.data());
    }
    crc32c(&buf)
}

/// The CRC of `exs` as one-example slices and as one slice; they must agree.
fn inference_crc(
    m: &BootlegModel,
    kb: &KnowledgeBase,
    exs: &[Example],
    opts: ForwardOptions,
) -> (u32, u32) {
    let singles: Vec<ForwardOutput> = exs
        .iter()
        .map(|ex| {
            let mut outs = m.run(kb, std::slice::from_ref(ex), opts).expect("no deadline");
            outs.pop().expect("one output")
        })
        .collect();
    let batched = m.run(kb, exs, opts).expect("no deadline");
    (outputs_crc(&singles), outputs_crc(&batched))
}

#[test]
fn inference_fingerprints_hold_at_n1_and_batched() {
    let (kb, c) = setup();
    let exs: Vec<Example> = c.dev.iter().filter_map(Example::training).take(32).collect();
    assert_eq!(exs.len(), 32, "corpus too small for the fingerprint");
    let full_opts = ForwardOptions::inference().with_loss(true).with_candidate_reprs(true);
    let mut moved = Vec::new();
    for &(name, want_inf, want_full) in INFERENCE {
        let m = model(&kb, &c, name);
        let (inf_1, inf_n) = inference_crc(&m, &kb, &exs, ForwardOptions::inference());
        let (full_1, full_n) = inference_crc(&m, &kb, &exs, full_opts);
        if (inf_1, inf_n, full_1, full_n) != (want_inf, want_inf, want_full, want_full) {
            moved.push(format!(
                "(\"{name}\", {inf_1:#010x}, {full_1:#010x}), // batched: {inf_n:#010x}, {full_n:#010x}"
            ));
        }
    }
    assert!(moved.is_empty(), "inference fingerprints moved; actual:\n{}", moved.join("\n"));
}

#[test]
fn training_fingerprints_hold() {
    let (kb, c) = setup();
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_sentences: Some(48),
        seed: 5,
        ..TrainConfig::default()
    };
    let mut moved = Vec::new();
    for &(name, want_losses, want_params) in TRAINING {
        let mut m = model(&kb, &c, name);
        let report = train(&mut m, &kb, &c.train, &tc);
        let losses: Vec<u32> = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
        let params = params_crc(&m);
        if losses != want_losses || params != want_params {
            let hex: Vec<String> = losses.iter().map(|b| format!("{b:#010x}")).collect();
            moved.push(format!("(\"{name}\", &[{}], {params:#010x}),", hex.join(", ")));
        }
    }
    assert!(moved.is_empty(), "training fingerprints moved; actual:\n{}", moved.join("\n"));
}
