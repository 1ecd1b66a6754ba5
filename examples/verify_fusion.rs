//! Reproduces every verification row of the paper's evaluation (§5),
//! prints a paper-vs-measured table (the same rows EXPERIMENTS.md records),
//! and then goes one step further than the paper: instead of merely
//! *checking* the hand-written fused programs, it has the transform layer
//! *synthesize* each fusion and prints the certificates.
//!
//! ```bash
//! cargo run --release --example verify_fusion
//! ```

use retreet_bench::{ablation_granularity, experiments_report, render_table, run_all, Budget};
use retreet_lang::corpus;
use retreet_transform::fuse_main_passes;

fn main() {
    let budget = Budget::default();
    let results = run_all(&budget);
    println!("{}", render_table(&results));
    let all_match = results.iter().all(|r| r.matches_paper());
    println!(
        "all verdicts match the paper: {}",
        if all_match { "yes" } else { "NO" }
    );

    println!("\ngranularity ablation (coarse TreeFuser-style baseline vs. fine-grained):");
    for row in ablation_granularity(&budget) {
        println!(
            "  {:<18} coarse accepts: {:<5}  fine-grained accepts: {}",
            row.case, row.coarse_accepts, row.fine_grained_accepts
        );
    }

    // From oracle to compiler backend: synthesize each §5 fusion from its
    // sequential original and report the certificate that licenses it.
    println!("\nsynthesized certified fusions:");
    let verifier = budget.equivalence_verifier();
    for (name, original) in [
        ("size_counting (E1)", corpus::size_counting_sequential()),
        ("tree_mutation (E2)", corpus::tree_mutation_original()),
        ("css_minify (E3)", corpus::css_minify_original()),
        ("cycletree (E4a)", corpus::cycletree_original()),
    ] {
        match fuse_main_passes(&verifier, &original) {
            Ok(certified) => println!(
                "  {:<20} {} fused function(s), {}",
                name,
                certified.synthesized.len(),
                certified.certificate,
            ),
            Err(err) => println!("  {name:<20} REFUSED: {err}"),
        }
    }

    println!(
        "\nmachine-readable record:\n{}",
        experiments_report(&results).pretty()
    );
}
