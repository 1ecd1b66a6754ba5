//! Cross-crate integration tests pinning every verdict of the paper's
//! evaluation (§5).  These are the rows EXPERIMENTS.md reports; if any of
//! them flips, the reproduction no longer reproduces the paper.

use retreet_bench::{ablation_granularity, run_all, Budget, Verdict};

#[test]
fn all_evaluation_rows_match_the_paper() {
    let results = run_all(&Budget::quick());
    assert_eq!(results.len(), 7);
    for result in &results {
        assert!(
            result.matches_paper(),
            "{}: got {:?}, paper reports {:?} ({})",
            result.id,
            result.verdict,
            result.expected,
            result.detail
        );
    }
}

#[test]
fn the_difficulty_ordering_holds() {
    // The paper's MONA run takes 490 s on the cycletree fusion, 6.9 s on
    // CSS and under 0.2 s on the small cases.  The exact region decider
    // makes CSS (E3) as cheap as the small cases here, so only the
    // cycletree fusion is still required to cost more than E1a.  Each
    // query takes milliseconds, so compare the best of a few rounds: one
    // round is at the mercy of whatever else the host runs meanwhile.
    let rounds: Vec<_> = (0..5).map(|_| run_all(&Budget::default())).collect();
    let seconds = |id: &str| {
        rounds
            .iter()
            .flatten()
            .filter(|r| r.id == id)
            .map(|r| r.measured_seconds)
            .fold(f64::INFINITY, f64::min)
    };
    assert!(seconds("E4a") > seconds("E1a"));
}

#[test]
fn race_queries_report_the_expected_verdict_kinds() {
    let results = run_all(&Budget::quick());
    let by_id = |id: &str| results.iter().find(|r| r.id == id).unwrap().verdict;
    assert_eq!(by_id("E1c"), Verdict::RaceFree);
    assert_eq!(by_id("E4b"), Verdict::Race);
    assert_eq!(by_id("E1b"), Verdict::Invalid);
}

#[test]
fn coarse_baseline_is_strictly_less_precise() {
    let rows = ablation_granularity(&Budget::quick());
    // Fine-grained accepts everything the coarse baseline accepts…
    for row in &rows {
        if row.coarse_accepts {
            assert!(row.fine_grained_accepts, "{} regressed", row.case);
        }
    }
    // …and accepts at least two fusions the baseline rejects.
    let gap = rows
        .iter()
        .filter(|r| !r.coarse_accepts && r.fine_grained_accepts)
        .count();
    assert!(gap >= 2);
}
