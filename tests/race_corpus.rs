//! Corpus pin for the happens-before race pass: one FNV-1a-64 hash over
//! the full [`RaceAnalysis`] (positions, sync edges, capped buffers and
//! every finding, in order) of `sage_check::race_analysis` across
//!
//! * every committed model and check fixture at 1, 2 and 4 nodes;
//! * `sage_fuzz::gen::gen_model` seeds `0..500` at `race_rate` 0.5 (half
//!   the corpus carries a seeded fan-in race), at each model's own node
//!   count.
//!
//! Any change to how the pass orders accesses shows up here as a changed
//! hash, even where no golden file happens to cover it. If a change to
//! the race findings is intentional, print the new value with
//! `cargo test --test race_corpus -- --nocapture` and update `PINNED`.

mod common;

use sage::fuzz::gen::{gen_model, GenConfig};
use sage_check::race::RaceAnalysis;
use sage_core::{generate, model_from_sexpr, Placement};
use sage_model::HardwareShelf;
use std::fmt::Write as _;

/// Hash of the canonical rendering below over the whole corpus.
const PINNED: u64 = 0xee77_827e_4114_ef6f;

/// Appends one corpus entry in a canonical, field-by-field form.
fn render(out: &mut String, name: &str, nodes: usize, analysis: Option<&RaceAnalysis>) {
    let _ = write!(out, "{name}@{nodes}:");
    let Some(a) = analysis else {
        out.push_str("none\n");
        return;
    };
    let _ = writeln!(
        out,
        "positions={} sync={} capped={:?}",
        a.positions, a.sync_edges, a.capped
    );
    for f in &a.findings {
        let _ = writeln!(
            out,
            "  {} {} | {} | {} | {:?} x{}",
            f.code, f.port, f.first, f.second, f.buffers, f.pairs
        );
    }
}

/// The race analysis of `src` generated for an aligned placement on
/// `nodes` processors, or `None` when the model does not load, does not
/// generate, or fails the program's structural checks.
fn analyze_source(src: &str, nodes: usize) -> Option<RaceAnalysis> {
    let app = model_from_sexpr(src).ok()?;
    let hw = HardwareShelf::cspi_with_nodes(nodes);
    let program = generate(&app, &hw, &Placement::Aligned).ok()?;
    sage_check::race_analysis(&program)
}

fn sexpr_files(dir: &str) -> Vec<std::path::PathBuf> {
    let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sexpr"))
        .collect();
    files.sort();
    files
}

#[test]
fn race_analysis_corpus_is_pinned() {
    let mut canon = String::new();
    let mut analyzed = 0usize;
    let mut findings = 0usize;
    let mut tally = |a: &Option<RaceAnalysis>| {
        if let Some(a) = a {
            analyzed += 1;
            findings += a.findings.len();
        }
    };
    for path in sexpr_files("examples/models")
        .into_iter()
        .chain(sexpr_files("tests/fixtures"))
    {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for nodes in [1, 2, 4] {
            let a = analyze_source(&src, nodes);
            tally(&a);
            render(&mut canon, &name, nodes, a.as_ref());
        }
    }
    let cfg = GenConfig {
        race_rate: 0.5,
        ..GenConfig::default()
    };
    for seed in 0..500u64 {
        let gm = gen_model(seed, &cfg);
        let a = analyze_source(&gm.source, gm.nodes);
        tally(&a);
        render(&mut canon, &format!("gen{seed}"), gm.nodes, a.as_ref());
    }
    let hash = common::fnv1a_64(canon.as_bytes());
    println!("race corpus: {analyzed} programs, {findings} findings, hash {hash:#018x}");
    // The corpus must exercise the pass, not just skip every entry.
    assert!(analyzed > 400 && findings > 50, "{analyzed} / {findings}");
    assert_eq!(
        hash, PINNED,
        "race analysis over the corpus drifted (hash {hash:#018x})"
    );
}
