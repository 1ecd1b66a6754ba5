//! The correctness oracle every response passes through.

use retreet_serve::json::{self, Value};

use crate::workload::Expect;

/// How one response compares with its expectation.
#[derive(Debug, Clone, PartialEq)]
pub enum Checked {
    /// The expected answer.
    Ok,
    /// A typed service error (`overloaded`, `deadline_exceeded`, …): the
    /// request failed, which counts against the success rate.
    Failed(String),
    /// An answer that contradicts the oracle: the run is wrong.
    Wrong(String),
}

/// Checks `response` against `expect`: the verdict word, kind and cache
/// path for verification requests; the VM tier, tree size and golden
/// returns for `run` requests.  Also returns the server's own
/// `elapsed_us`, when the response carries one.
pub fn check(response: &str, expect: &Expect) -> (Checked, Option<f64>) {
    let Ok(value) = json::parse(response) else {
        return (
            Checked::Wrong(format!("response is not JSON: {response}")),
            None,
        );
    };
    let elapsed_us = match value.as_object().and_then(|o| o.get("elapsed_us")) {
        Some(Value::Number(us)) => Some(*us),
        _ => None,
    };
    (check_value(&value, response, expect), elapsed_us)
}

fn check_value(value: &Value, response: &str, expect: &Expect) -> Checked {
    let Some(object) = value.as_object() else {
        return Checked::Wrong(format!("response is not an object: {response}"));
    };
    let text = |key: &str| object.get(key).and_then(Value::as_str);
    match text("status") {
        Some("ok") => {}
        Some("error") => {
            return Checked::Failed(text("code").unwrap_or("unknown").to_string());
        }
        _ => return Checked::Wrong(format!("response has no status: {response}")),
    }
    let mismatch = |what: &str| Checked::Wrong(format!("{what}: {response}"));
    match expect {
        Expect::Verdict {
            kind,
            verdict,
            cached,
        } => {
            if text("kind") != Some(kind) {
                return mismatch(&format!("expected kind `{kind}`"));
            }
            if text("verdict") != Some(verdict) {
                return mismatch(&format!("expected verdict `{verdict}`"));
            }
            if object.get("cached") != Some(&Value::Bool(*cached)) {
                return mismatch(&format!("expected cached={cached}"));
            }
            Checked::Ok
        }
        Expect::Run { returns, nodes, .. } => {
            if text("tier") != Some("vm") {
                return mismatch("expected the VM tier");
            }
            if object.get("nodes") != Some(&Value::Number(*nodes as f64)) {
                return mismatch(&format!("expected {nodes} nodes"));
            }
            let got: Option<Vec<i64>> = object
                .get("returns")
                .and_then(Value::as_array)
                .map(|items| {
                    items
                        .iter()
                        .map(|item| match item {
                            Value::Number(n) => Some(*n as i64),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or(None);
            if got.as_ref() != Some(returns) {
                return mismatch(&format!("expected returns {returns:?}"));
            }
            Checked::Ok
        }
    }
}
