//! `bench_tune` — the certified schedule autotuner benchmark.
//!
//! Runs `retreet_runtime::tune_and_compile` (the VM-backed cost model over
//! `retreet_transform::tune`'s schedule search) on all four §5 experiment
//! families, prints per-family candidate tables with certificates, and
//! writes the machine-readable report to `BENCH_tune.json` at the
//! repository root.
//!
//! ```text
//! bench_tune [--quick] [--out PATH] [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — quick certification budget and smaller measurement trees
//!   (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_tune.json` in the current directory).
//! * `--batches N` / `--per-batch N` — timing loop shape (overrides the
//!   budget's defaults, best-of-batches).
//!
//! The process fails on three regressions, none of which is a performance
//! number:
//!
//! * **drift** — the winning schedule's VM run diverges from the original
//!   program's interpreter reference;
//! * **baseline regression** — a tuned cost above
//!   best-of{original, canonical fusion}, violating the tuner's guarantee;
//! * **missing certificate** — a winner whose verdict lacks engine or
//!   soundness provenance.

use retreet_bench::harness::Flags;
use retreet_bench::{measure_tune, render_tune_report, tune_report, Budget};
use retreet_transform::TuneOptions;

fn main() {
    let flags = Flags::parse(
        "bench_tune",
        "bench_tune [--quick] [--out PATH] [--batches N] [--per-batch N]",
        &["--quick"],
        &["--out", "--batches", "--per-batch"],
    );
    let out = flags.get_or("--out", String::from("BENCH_tune.json"));

    let (label, budget, mut options) = if flags.switch("--quick") {
        ("quick", Budget::quick(), TuneOptions::quick())
    } else {
        (
            "full",
            Budget::default(),
            // Height 14 matches bench_transform's full trees — large enough
            // that whole-pass fusion stops paying on E3/E4a (the working
            // set outgrows cache) and the tuner's schedule choice matters.
            TuneOptions {
                tree_height: 14,
                batches: 5,
                per_batch: 3,
                ..TuneOptions::default()
            },
        )
    };
    options.batches = flags.get_or("--batches", options.batches);
    options.per_batch = flags.get_or("--per-batch", options.per_batch);

    println!(
        "== schedule autotuner ({label} budget, trees of height {}) ==",
        options.tree_height
    );
    let verifier = budget.tune_verifier();
    let rows = measure_tune(&verifier, &options);
    print!("{}", render_tune_report(&rows));

    println!();
    flags.write_report(&out, &tune_report(label, &budget, &options, &rows));

    let mut failed = false;
    for row in &rows {
        if row.drift {
            eprintln!(
                "bench_tune: {} winner diverged from the interpreter reference",
                row.id
            );
            failed = true;
        }
        if row.regressed() {
            eprintln!(
                "bench_tune: {} tuned schedule is slower than the best baseline \
                 ({:.6}s > {:.6}s) — the tuner's guarantee is broken",
                row.id,
                row.tuned_seconds,
                row.best_baseline_seconds()
            );
            failed = true;
        }
        if row.winner_kind.is_empty()
            || row.winner_engine.is_empty()
            || row.winner_soundness.is_empty()
        {
            eprintln!(
                "bench_tune: {} winner carries no certificate provenance",
                row.id
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
