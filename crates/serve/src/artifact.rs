//! Frozen-artifact serve startup.
//!
//! Production deployments reload a trained artifact far more often than
//! they train one. When `BOOTLEG_ARTIFACT=path` is set, serve startup thaws
//! the frozen bundle ([`bootleg_core::frozen`]) instead of regenerating the
//! KB and re-parsing a checkpoint: the KB, vocabulary, config, trained
//! weights, and the prebuilt entity-payload plane (the pooled type,
//! relation and title signals) all arrive in one validated bulk load, so
//! [`crate::Tier::warm`] on the resulting tier is a no-op and the process
//! is serve-ready immediately.

use bootleg_core::{artifact_from_env, thaw_from_path, FrozenBundle, FrozenError};

/// Thaws the artifact named by `BOOTLEG_ARTIFACT`, if any.
///
/// * `None` — the variable is unset/empty: build the model live as usual.
/// * `Some(Ok(bundle))` — serve from the bundle's model + KB.
/// * `Some(Err(e))` — the operator pointed at an artifact and it failed
///   validation. Callers should treat this as a startup error, not fall
///   back silently: a corrupt artifact in production is an incident.
pub fn startup_bundle() -> Option<Result<FrozenBundle, FrozenError>> {
    let path = artifact_from_env()?;
    let start = std::time::Instant::now();
    let result = thaw_from_path(&path);
    match &result {
        Ok(bundle) => {
            bootleg_obs::info!(
                "serve.artifact_loaded",
                path = path.display(),
                entities = bundle.model.n_entities,
                params = bundle.model.params.len(),
                ms = start.elapsed().as_millis()
            );
        }
        Err(e) => {
            bootleg_obs::error!("serve.artifact_failed", path = path.display(), error = e);
        }
    }
    Some(result)
}
