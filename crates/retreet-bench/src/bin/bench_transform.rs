//! `bench_transform` — the certified-transform benchmark.
//!
//! Synthesizes every fusable §5 case through `retreet-transform`, checks
//! the certificates, measures the certified fusion against the sequential
//! pass composition — both compiled to the `retreet-codegen` VM tier and
//! differential-checked against the interpreter before timing — and writes
//! the machine-readable report to `BENCH_transform.json` at the repository
//! root.
//!
//! ```text
//! bench_transform [--quick] [--out PATH] [--min-speedup X]
//!                 [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — quick certification budget and smaller trees (the CI
//!   perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_transform.json` in the current directory).
//! * `--min-speedup X` — exit non-zero when any fused workload fails to
//!   reach `X`× over its sequential composition (default 1.0: the fused
//!   pass must at least match the sequential composition).
//! * `--batches N` / `--per-batch N` — timing loop shape (default 5 × 3,
//!   best-of-batches).
//!
//! The process fails on **certificate drift** (any §5 fusion the transform
//! layer can no longer synthesize-and-certify as an equivalence) and on
//! **execution drift** (a fused or sequential program whose VM run diverges
//! from the interpreter reference) — both are correctness regressions, not
//! performance numbers.

use retreet_bench::harness::Flags;
use retreet_bench::{
    certify_transforms, measure_transform_perf, render_transform_report, transform_report, Budget,
};

fn main() {
    let flags = Flags::parse(
        "bench_transform",
        "bench_transform [--quick] [--out PATH] [--min-speedup X] [--batches N] [--per-batch N]",
        &["--quick"],
        &["--out", "--min-speedup", "--batches", "--per-batch"],
    );
    let out = flags.get_or("--out", String::from("BENCH_transform.json"));
    let min_speedup = flags.get_or("--min-speedup", 1.0);
    let batches = flags.get_or("--batches", 5);
    let per_batch = flags.get_or("--per-batch", 3);

    let (label, budget, tree_height) = if flags.switch("--quick") {
        ("quick", Budget::quick(), 10)
    } else {
        ("full", Budget::default(), 14)
    };

    println!("== certificates ({label} budget) ==");
    let certs = certify_transforms(&budget);
    // The runtime rows execute through the compiled VM tier; the verifier
    // here backs certified lowering, so its cache stays enabled.
    let perf = measure_transform_perf(&budget.tune_verifier(), batches, per_batch, tree_height);
    print!("{}", render_transform_report(&certs, &perf));

    flags.write_report(&out, &transform_report(label, &budget, &certs, &perf));

    let mut failed = false;
    for row in &certs {
        if !row.certified || row.kind != "equivalence" {
            eprintln!(
                "bench_transform: certificate drift on {} ({}): {}",
                row.id, row.case, row.detail
            );
            failed = true;
        }
    }
    for row in &perf {
        if row.drift {
            eprintln!(
                "bench_transform: {} diverged from the interpreter reference on the VM tier",
                row.id
            );
            failed = true;
        }
        if row.speedup() < min_speedup {
            eprintln!(
                "bench_transform: {} fused pass reached only {:.2}x (minimum {:.2}x)",
                row.id,
                row.speedup(),
                min_speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
