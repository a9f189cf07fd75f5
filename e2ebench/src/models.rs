//! Seeded model text. Every workload starts from a model built by
//! `sage_apps`, exported with `model_to_sexpr`, with the benchmark seed
//! written into every source block's `seed` property. The program under
//! test receives only this text; no model file is read.

use sage_core::model_to_sexpr;
use sage_model::{AppGraph, BlockId, BlockKind, PropValue};

/// Writes `seed` into the `seed` property of every source block,
/// hierarchical sub-graphs included.
fn set_seed(g: &mut AppGraph, seed: i64) {
    for i in 0..g.block_count() {
        let b = g.block_mut(BlockId::from_index(i));
        match &mut b.kind {
            BlockKind::Source { .. } => {
                b.props.insert("seed".into(), PropValue::Int(seed));
            }
            BlockKind::Hierarchical { subgraph } => set_seed(subgraph, seed),
            _ => {}
        }
    }
}

/// `app` as model text with `seed` in its source blocks. Seeds are kept
/// within the non-negative `i64` range the model format stores.
pub fn seeded_text(mut app: AppGraph, seed: u64) -> String {
    set_seed(&mut app, (seed & i64::MAX as u64) as i64);
    model_to_sexpr(&app)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_every_source_and_only_sources() {
        let text = seeded_text(sage_apps::stap::sage_model(16, 2), 4242);
        assert!(text.contains("(\"seed\" 4242)"), "{text}");
        assert_eq!(text.matches("\"seed\"").count(), 1, "{text}");
        let other = seeded_text(sage_apps::stap::sage_model(16, 2), 7);
        assert_ne!(text, other);
        assert!(sage_core::model_from_sexpr(&text).is_ok());
    }
}
