//! `bench_engines` — the before/after engine benchmark.
//!
//! Runs every §5 experiment through the frozen naive engines
//! (`retreet_analysis::naive`, the seed revision's hot path) and through the
//! optimized façade engines, under the quick and the full (default) budget,
//! and writes the machine-readable report to `BENCH_engines.json` at the
//! repository root — the perf trajectory future revisions regress against.
//!
//! ```text
//! bench_engines [--quick] [--out PATH] [--ceiling-seconds S]
//!               [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — only run the quick budget (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_engines.json` in the current directory).
//! * `--ceiling-seconds S` — exit non-zero when any single optimized
//!   experiment exceeds `S` seconds (default 60; a generous guard that
//!   catches accidental exponential regressions, not noise).
//! * `--batches N` / `--per-batch N` — timing loop shape (default 5 × 3,
//!   best-of-batches).
//!
//! The process also fails when any experiment's verdict disagrees with the
//! paper or with the naive engine — a perf run that changes answers is a
//! bug, not a speedup — and when any experiment's verdict *soundness*
//! regresses from `unbounded`: every §5 experiment is answered by the
//! automata tier with an unbounded guarantee, and a revision that silently
//! drops one of them back to a bounded-budget answer must not pass.

use retreet_bench::harness::Flags;
use retreet_bench::{engines_report, measure_engine_perf, render_engine_perf, Budget};

fn main() {
    let flags = Flags::parse(
        "bench_engines",
        "bench_engines [--quick] [--out PATH] [--ceiling-seconds S] [--batches N] [--per-batch N]",
        &["--quick"],
        &["--out", "--ceiling-seconds", "--batches", "--per-batch"],
    );
    let out = flags.get_or("--out", String::from("BENCH_engines.json"));
    let ceiling_seconds = flags.get_or("--ceiling-seconds", 60.0);
    let batches = flags.get_or("--batches", 5);
    let per_batch = flags.get_or("--per-batch", 3);

    let quick = Budget::quick();
    let full = Budget::default();
    let mut sections: Vec<(&str, &Budget, _)> = Vec::new();
    if !flags.switch("--quick") {
        println!("== full budget (default) ==");
        let rows = measure_engine_perf(&full, batches, per_batch);
        print!("{}", render_engine_perf(&rows));
        sections.push(("full", &full, rows));
    }
    println!("== quick budget ==");
    let quick_rows = measure_engine_perf(&quick, batches, per_batch);
    print!("{}", render_engine_perf(&quick_rows));
    sections.push(("quick", &quick, quick_rows));

    flags.write_report(&out, &engines_report(&sections));

    let mut failed = false;
    for (label, _, rows) in &sections {
        for row in rows {
            if !row.matches_paper() {
                eprintln!(
                    "bench_engines: {label}/{} verdict {:?} disagrees with the paper",
                    row.id, row.verdict
                );
                failed = true;
            }
            if !row.verdicts_agree {
                eprintln!(
                    "bench_engines: {label}/{} naive and optimized engines disagree",
                    row.id
                );
                failed = true;
            }
            if row.soundness != "unbounded" {
                eprintln!(
                    "bench_engines: {label}/{} soundness regressed to `{}` \
                     (every §5 experiment must stay unbounded)",
                    row.id, row.soundness
                );
                failed = true;
            }
            if row.optimized_seconds > ceiling_seconds {
                eprintln!(
                    "bench_engines: {label}/{} took {:.2}s, over the {:.0}s ceiling",
                    row.id, row.optimized_seconds, ceiling_seconds
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
