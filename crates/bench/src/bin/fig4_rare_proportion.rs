//! Figure 4: error rate as a function of the rare-entity proportion of the
//! gold mention's type (right panel) or relation (left panel) category, for
//! NED-Base, Bootleg (Ent-only), and Bootleg.
//!
//! Run: `cargo run --release -p bootleg-bench --bin fig4_rare_proportion`

use bootleg_baselines::{train_ned_base, NedBase, NedBaseConfig};
use bootleg_bench::{full_train_config, row, Results, ResultsTable, Workbench};
use bootleg_core::{BootlegConfig, BootlegModel, Example, ForwardOptions, ModelVariant};
use bootleg_eval::metrics::Prf;
use bootleg_kb::stats::{rare_proportion_by_relation, rare_proportion_by_type};
use bootleg_kb::EntityId;

const N_BINS: usize = 5;

type DynPredict<'a> = Box<dyn FnMut(&Example) -> Vec<usize> + 'a>;

/// One sentence through the unified forward entrypoint.
fn infer(model: &BootlegModel, kb: &bootleg_kb::KnowledgeBase, ex: &Example) -> Vec<usize> {
    model
        .run(kb, std::slice::from_ref(ex), ForwardOptions::inference())
        .expect("unlimited deadline cannot interrupt")
        .pop()
        .expect("one output per example")
        .predictions
}

/// Bins evaluable mentions by the max rare-proportion of the gold's
/// categories and accumulates a PRF per bin.
fn curve(
    sentences: &[bootleg_corpus::Sentence],
    prop_of: &dyn Fn(EntityId) -> Option<f64>,
    mut predict: impl FnMut(&Example) -> Vec<usize>,
) -> Vec<Prf> {
    let mut bins = vec![Prf::default(); N_BINS];
    for s in sentences {
        let Some(ex) = Example::evaluation(s) else { continue };
        let preds = predict(&ex);
        for (m, &p) in ex.mentions.iter().zip(&preds) {
            let gi = m.gold.expect("gold") as usize;
            let Some(prop) = prop_of(m.candidates[gi]) else { continue };
            let bin = ((prop * N_BINS as f64) as usize).min(N_BINS - 1);
            bins[bin].merge(Prf::closed(usize::from(p == gi), 1));
        }
    }
    bins
}

fn print_panel(
    title: &str,
    sentences: &[bootleg_corpus::Sentence],
    prop_of: &dyn Fn(EntityId) -> Option<f64>,
    models: &mut [(&str, DynPredict<'_>)],
) -> ResultsTable {
    println!("\n{title}: error rate (%) by rare-proportion bin");
    let widths = [14, 12, 12, 12, 10];
    let mut header = vec!["Bin".to_string()];
    header.extend(models.iter().map(|(n, _)| n.to_string()));
    header.push("#Ment".into());
    let mut table = ResultsTable::new(&header);
    println!("{}", row(&header, &widths));
    let curves: Vec<Vec<Prf>> =
        models.iter_mut().map(|(_, f)| curve(sentences, prop_of, f)).collect();
    for b in 0..N_BINS {
        let lo = b as f64 / N_BINS as f64;
        let hi = (b + 1) as f64 / N_BINS as f64;
        let mut cells = vec![format!("{:.1}-{:.1}", lo, hi)];
        for c in &curves {
            cells.push(if c[b].gold == 0 {
                "-".into()
            } else {
                format!("{:.1}", 100.0 - c[b].f1())
            });
        }
        cells.push(curves[0][b].gold.to_string());
        table.add(&cells);
        println!("{}", row(&cells, &widths));
    }
    table
}

fn main() -> std::io::Result<()> {
    let wb = Workbench::full(2024);
    let eval_set = &wb.corpus.dev;

    let mut ned = NedBase::new(&wb.kb, &wb.corpus.vocab, NedBaseConfig::default());
    train_ned_base(&mut ned, &wb.corpus.train, &full_train_config());
    let ent_only = wb.train_bootleg(
        BootlegConfig::default().with_variant(ModelVariant::EntOnly),
        &full_train_config(),
    );
    let bootleg = wb.train_bootleg(BootlegConfig::default(), &full_train_config());

    let by_type = rare_proportion_by_type(&wb.kb, &wb.counts);
    let by_rel = rare_proportion_by_relation(&wb.kb, &wb.counts);
    let type_prop = |e: EntityId| -> Option<f64> {
        wb.kb
            .entity(e)
            .types
            .iter()
            .filter_map(|t| by_type.get(t).copied())
            .fold(None, |acc: Option<f64>, p| Some(acc.map_or(p, |a| a.max(p))))
    };
    let rel_prop = |e: EntityId| -> Option<f64> {
        wb.kb
            .entity(e)
            .relations
            .iter()
            .filter_map(|r| by_rel.get(r).copied())
            .fold(None, |acc: Option<f64>, p| Some(acc.map_or(p, |a| a.max(p))))
    };

    println!("Figure 4: error rate vs rare-entity proportion of the gold's category");
    let mut models: Vec<(&str, DynPredict<'_>)> = vec![
        ("NED-Base", Box::new(|ex: &Example| ned.predict_indices(ex))),
        ("Ent-only", Box::new(|ex: &Example| infer(&ent_only, &wb.kb, ex))),
        ("Bootleg", Box::new(|ex: &Example| infer(&bootleg, &wb.kb, ex))),
    ];
    let by_relation = print_panel("(Left) by relation", eval_set, &rel_prop, &mut models);
    let by_type = print_panel("(Right) by type", eval_set, &type_prop, &mut models);
    println!(
        "\n(paper: Bootleg's error stays lowest and flattest as the rare-proportion grows;\n\
         the baseline and Ent-only error rates climb)"
    );

    let mut results = Results::new("fig4_rare_proportion");
    results.set_table("by_relation", by_relation);
    results.set_table("by_type", by_type);
    results.write()?;
    Ok(())
}
