//! What the `bench_*` binaries share: one flag parser, the helpers that
//! build a report as a [`Value`], and one report writer, so every binary
//! reads its flags and writes its `BENCH_*.json` document the same way.
//!
//! Exit codes are the same for every binary: 0 after `--help` / `-h`, 2 on
//! a malformed command line, 1 when the report cannot be written (and 1 on
//! a failed gate, which each binary checks itself).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

pub use retreet_serve::json::Value;

/// A parsed command line: which switches were given and the value of each
/// option.  A repeated flag keeps its last value.
#[derive(Debug)]
pub struct Flags {
    program: &'static str,
    given: BTreeMap<String, String>,
}

impl Flags {
    /// Parses the process arguments.  `switches` take no value, `options`
    /// take the next argument.  Prints `usage` and exits 0 on `--help` or
    /// `-h`; reports a malformed command line as `program: message` on
    /// stderr and exits 2.
    pub fn parse(program: &'static str, usage: &str, switches: &[&str], options: &[&str]) -> Flags {
        let flags = Self::parse_from(program, switches, options, std::env::args().skip(1))
            .unwrap_or_else(|message| exit_usage(program, &message));
        if flags.switch("--help") {
            println!("{usage}");
            std::process::exit(0);
        }
        flags
    }

    /// [`Flags::parse`] over explicit arguments, without exiting: `Err`
    /// carries the message for an unknown flag or an option missing its
    /// value.  `-h` is recorded as `--help`.
    fn parse_from(
        program: &'static str,
        switches: &[&str],
        options: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut given = BTreeMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = if arg == "-h" {
                String::from("--help")
            } else {
                arg
            };
            let value = if arg == "--help" || switches.contains(&arg.as_str()) {
                String::new()
            } else if options.contains(&arg.as_str()) {
                args.next()
                    .ok_or_else(|| format!("{arg} expects a value"))?
            } else {
                return Err(format!("unknown argument `{arg}`"));
            };
            given.insert(arg, value);
        }
        Ok(Flags { program, given })
    }

    /// True when the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value of option `name` parsed as `T`, or `default` when it was
    /// not given.  A value that does not parse exits 2 like any other
    /// malformed command line.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        match self.given.get(name) {
            None => default,
            Some(text) => text
                .parse()
                .unwrap_or_else(|err| exit_usage(self.program, &format!("{name}: {err}"))),
        }
    }

    /// Writes `report` as indented JSON to `path`, or exits 1 when the file
    /// cannot be written.
    pub fn write_report(&self, path: &str, report: &Value) {
        if let Err(err) = std::fs::write(path, format!("{}\n", report.pretty())) {
            eprintln!("{}: cannot write {path}: {err}", self.program);
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
}

/// Builds a JSON object from `"key": value` entries, in the shape of the
/// document it produces; keys render sorted.  Each value goes through
/// [`ToValue`].
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::harness::Value::Object(
            [$(($key.to_owned(), $crate::harness::ToValue::to_value($value))),*]
                .into_iter()
                .collect(),
        )
    };
}

/// What a report entry may hold.  There is deliberately no impl for
/// `f64`: every float goes through [`num`], which rounds it.
pub trait ToValue {
    /// The JSON value for `self`.
    fn to_value(self) -> Value;
}

macro_rules! to_value {
    ($($ty:ty: $x:ident => $value:expr;)*) => {
        $(impl ToValue for $ty {
            fn to_value(self) -> Value {
                let $x = self;
                $value
            }
        })*
    };
}

to_value! {
    Value: value => value;
    &str: s => Value::String(s.to_owned());
    &String: s => Value::String(s.clone());
    bool: b => Value::Bool(b);
    usize: n => Value::Number(n as f64);
    u64: n => Value::Number(n as f64);
}

/// `None` is `null`.
impl<T: ToValue> ToValue for Option<T> {
    fn to_value(self) -> Value {
        self.map_or(Value::Null, T::to_value)
    }
}

/// A JSON array of `items`.
pub fn array<T: ToValue>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(T::to_value).collect())
}

/// `x` rounded to `places` decimals, the precision the report records it
/// at.  Non-finite values stay non-finite and render as `null`.
pub fn num(x: f64, places: usize) -> Value {
    Value::Number(
        format!("{x:.places$}")
            .parse()
            .expect("a formatted f64 parses back"),
    )
}

fn exit_usage(program: &str, message: &str) -> ! {
    eprintln!("{program}: {message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse_from(
            "bench_test",
            &["--quick"],
            &["--out", "--batches"],
            args.iter().map(|arg| arg.to_string()),
        )
    }

    #[test]
    fn switches_options_and_defaults() {
        let flags = parse(&["--quick", "--batches", "7", "--out", "a", "--out", "b"]).unwrap();
        assert!(flags.switch("--quick"));
        assert_eq!(flags.get_or("--batches", 5usize), 7);
        assert_eq!(flags.get_or("--out", String::new()), "b");
        let defaults = parse(&[]).unwrap();
        assert!(!defaults.switch("--quick"));
        assert_eq!(defaults.get_or("--batches", 5usize), 5);
        assert!(parse(&["-h"]).unwrap().switch("--help"));
    }

    #[test]
    fn numbers_are_rounded_to_their_report_precision() {
        assert_eq!(num(0.123_456_789, 6).to_string(), "0.123457");
        assert_eq!(num(1.1, 2).to_string(), "1.1");
        assert_eq!(num(15_210.4, 0).to_string(), "15210");
        assert_eq!(num(f64::INFINITY, 2).to_string(), "null");
        assert_eq!(num(f64::NAN, 6).to_string(), "null");
    }

    #[test]
    fn object_builds_the_document_it_reads_like() {
        let report = crate::object! {
            "name": "E1", "count": 3usize, "ok": true, "missing": None::<u64>,
            "rows": array([crate::object! { "seconds": num(0.5, 6) }]),
        };
        assert_eq!(
            report.to_string(),
            r#"{"count":3,"missing":null,"name":"E1","ok":true,"rows":[{"seconds":0.5}]}"#
        );
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        assert_eq!(parse(&["--fast"]).unwrap_err(), "unknown argument `--fast`");
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out expects a value");
        // A switch never swallows the next argument.
        assert!(parse(&["--quick", "7"]).is_err());
    }
}
