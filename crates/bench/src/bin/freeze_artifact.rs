//! Exports (and verifies) frozen serving artifacts.
//!
//! ```text
//! freeze_artifact --out <path>             # serving-scale artifact
//! freeze_artifact --out <path> --golden    # the small golden fixture
//! freeze_artifact --thaw <path>            # validate + smoke-serve a file
//! ```
//!
//! The default export uses the same seeded serving workload as the
//! `telemetry_serve` demo, so `BOOTLEG_ARTIFACT=<path> telemetry_serve`
//! serves the exported artifact against its own request stream. `--golden`
//! exports the canonical conformance fixture
//! (`bootleg_core::frozen::golden_inputs`) checked in under
//! `tests/data/golden.btfz`.

use bootleg_core::{frozen, BootlegConfig, BootlegModel};
use bootleg_corpus::CorpusConfig;
use bootleg_eval::{BootlegPredictor, Predictor};
use bootleg_kb::KbConfig;
use std::path::PathBuf;
use std::process::ExitCode;

fn arg_value(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let golden = args.iter().any(|a| a == "--golden");

    if let Some(path) = arg_value(&args, "--thaw") {
        let start = std::time::Instant::now();
        let bundle = match frozen::thaw_from_path(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("freeze_artifact: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "thawed {} in {:?}: {} entities, {} aliases, {} params, {} vocab, cache {} bytes",
            path.display(),
            start.elapsed(),
            bundle.model.n_entities,
            bundle.kb.aliases.len(),
            bundle.model.params.len(),
            bundle.vocab.len(),
            bundle.model.entity_cache_bytes(),
        );
        // Smoke-serve: the thawed bundle must answer real requests.
        let predictor = BootlegPredictor::from_frozen(&bundle);
        let mut served = 0usize;
        for alias in bundle.kb.aliases.iter().filter(|a| a.ambiguous()).take(8) {
            let tokens = vec![bundle.vocab.id(&alias.surface)];
            let ex = bootleg_core::Example::inference(
                tokens,
                vec![bootleg_core::ExMention {
                    first: 0,
                    last: 0,
                    candidates: alias.candidates.clone(),
                    gold: None,
                }],
            );
            let preds = predictor.predict(&ex);
            assert_eq!(preds.len(), 1, "one prediction per mention");
            served += 1;
        }
        println!("smoke-served {served} requests from the thawed bundle");
        return ExitCode::SUCCESS;
    }

    let Some(out) = arg_value(&args, "--out") else {
        eprintln!("usage: freeze_artifact --out <path> [--golden] | --thaw <path>");
        return ExitCode::FAILURE;
    };

    let (kb, vocab, model);
    if golden {
        let (g_kb, g_corpus, g_model) = frozen::golden_inputs();
        kb = g_kb;
        vocab = g_corpus.vocab;
        model = g_model;
    } else {
        // The telemetry_serve workload's seeds, so the exported artifact
        // serves that demo's request stream.
        kb = bootleg_kb::generate(&KbConfig { n_entities: 600, seed: 71, ..KbConfig::default() });
        let corpus = bootleg_corpus::generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 120, seed: 72, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
        model =
            BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default().serving());
        vocab = corpus.vocab;
    }

    let start = std::time::Instant::now();
    if let Err(e) = frozen::freeze_to_path(&model, &kb, &vocab, &out) {
        eprintln!("freeze_artifact: {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "froze {} in {:?}: {} bytes, {} entities, {} params{}",
        out.display(),
        start.elapsed(),
        bytes,
        model.n_entities,
        model.params.len(),
        if golden { " (golden fixture)" } else { "" },
    );
    ExitCode::SUCCESS
}
