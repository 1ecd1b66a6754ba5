//! `bench_codegen` — the bytecode-VM execution-tier benchmark.
//!
//! Compiles every executable §5 workload through `retreet-codegen` (with
//! verifier-certified iterative lowering), differential-checks the VM
//! against the reference interpreter, measures interpreter vs VM vs
//! VM-on-certified-fusion on concrete trees, and writes the
//! machine-readable report to `BENCH_codegen.json` at the repository root.
//!
//! ```text
//! bench_codegen [--quick] [--out PATH] [--min-speedup X]
//!               [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — smaller trees (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_codegen.json` in the current directory).
//! * `--min-speedup X` — exit non-zero when the best VM speedup over the
//!   interpreter stays below `X`× (default 1.0).
//! * `--batches N` / `--per-batch N` — timing loop shape (default 5 × 3,
//!   best-of-batches).
//!
//! The process fails on **drift**: any workload whose VM returns or
//! post-run tree diverge from the interpreter is a correctness regression,
//! not a performance number.  It also fails if any emitted lowering
//! certificate carries a non-equivalence verdict, or if the recompile
//! phase fails to serve its verdicts from the cache (the honesty check on
//! the `cached` flag).

use retreet_bench::harness::Flags;
use retreet_bench::{codegen_report, measure_codegen_perf, render_codegen_report};
use retreet_verify::Verifier;

fn main() {
    let flags = Flags::parse(
        "bench_codegen",
        "bench_codegen [--quick] [--out PATH] [--min-speedup X] [--batches N] [--per-batch N]",
        &["--quick"],
        &["--out", "--min-speedup", "--batches", "--per-batch"],
    );
    let out = flags.get_or("--out", String::from("BENCH_codegen.json"));
    let min_speedup = flags.get_or("--min-speedup", 1.0);
    let batches = flags.get_or("--batches", 5);
    let per_batch = flags.get_or("--per-batch", 3);

    let (label, tree_height) = if flags.switch("--quick") {
        ("quick", 10)
    } else {
        ("full", 14)
    };

    // Cache *enabled*, unlike the verdict-timing benches: the recompile
    // phase exists to show the cached serving path, honestly flagged.
    let verifier = Verifier::builder().build();

    println!("== codegen tier ({label}, complete trees of height {tree_height}) ==");
    let (rows, certs) = measure_codegen_perf(&verifier, batches, per_batch, tree_height);
    print!("{}", render_codegen_report(&rows, &certs));

    flags.write_report(&out, &codegen_report(label, tree_height, &rows, &certs));

    let mut failed = false;
    for row in &rows {
        if row.drift {
            eprintln!(
                "bench_codegen: {} VM output diverged from the interpreter ({})",
                row.id, row.case
            );
            failed = true;
        }
    }
    for cert in &certs {
        if cert.phase == "recompile" && !cert.cached {
            eprintln!(
                "bench_codegen: {} recompile of {} was not served from the verdict cache",
                cert.workload, cert.func
            );
            failed = true;
        }
    }
    let best = rows.iter().map(|r| r.vm_speedup()).fold(0.0_f64, f64::max);
    if best < min_speedup {
        eprintln!(
            "bench_codegen: best VM speedup {:.2}x below minimum {:.2}x",
            best, min_speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
