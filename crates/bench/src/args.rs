//! Strict command-line flags for `figures` and `obs`.
//!
//! A command reads every flag it accepts and then calls [`Args::finish`]
//! before it prints anything; whatever is left on the command line is
//! outside its set. An unknown flag, a flag without its value and a value
//! that does not parse all end the same way — one line on stderr, nothing
//! on stdout, exit status 2 — so a typo can never run the default
//! experiment and print a plausible table.

use std::cell::RefCell;
use std::str::FromStr;

use vcdn_types::DurationMs;

use crate::Scale;

/// The command-line tokens of one command that it has not read yet.
pub struct Args {
    cmd: String,
    rest: RefCell<Vec<String>>,
}

impl Args {
    /// Wraps the tokens that follow the command name.
    pub fn new(cmd: &str, tokens: impl IntoIterator<Item = String>) -> Self {
        Args {
            cmd: cmd.to_string(),
            rest: RefCell::new(tokens.into_iter().collect()),
        }
    }

    /// The process arguments of a single-command binary.
    pub fn from_env(cmd: &str) -> Self {
        Self::new(cmd, std::env::args().skip(1))
    }

    /// Prints `message` as the command's one error line and exits 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.cmd);
        std::process::exit(2)
    }

    /// Removes `--name` and the `n` values after it from the unread
    /// tokens and returns the values; `None` if the flag is absent.
    fn take(&self, name: &str, n: usize) -> Result<Option<Vec<String>>, String> {
        let flag = format!("--{name}");
        let mut rest = self.rest.borrow_mut();
        let Some(i) = rest.iter().position(|t| *t == flag) else {
            return Ok(None);
        };
        match rest.get(i + 1..i + 1 + n) {
            Some(values) if values.iter().all(|v| !v.starts_with("--")) => {
                Ok(Some(rest.drain(i..=i + n).skip(1).collect()))
            }
            _ => Err(format!("{flag} needs {n} value(s)")),
        }
    }

    /// Reads `--name <v1> … <vn>` (a switch has `n = 0`).
    pub fn values(&self, name: &str, n: usize) -> Option<Vec<String>> {
        self.take(name, n).unwrap_or_else(|e| self.fail(&e))
    }

    /// Reads `--name <value>`.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.values(name, 1)?.pop()?;
        match value.parse() {
            Ok(v) => Some(v),
            Err(_) => self.fail(&format!("--{name}: cannot parse {value:?}")),
        }
    }

    /// Whether the bare switch `--name` is present.
    pub fn switch(&self, name: &str) -> bool {
        self.values(name, 0).is_some()
    }

    /// Removes and returns the first unread token that is not a flag: a
    /// positional operand, named `what` in the error when there is none.
    /// Read the command's flags first — a flag's values go with it.
    pub fn operand(&self, what: &str) -> String {
        let at = (self.rest.borrow().iter()).position(|t| !t.starts_with("--"));
        match at {
            Some(i) => self.rest.borrow_mut().remove(i),
            None => self.fail(&format!("missing operand {what}")),
        }
    }

    /// Declares the command's flag set complete: any token not read by
    /// now is an error. Call it before the first byte of output.
    pub fn finish(&self) {
        if let Some(token) = self.rest.borrow().first() {
            self.fail(&format!("unexpected argument {token:?}"));
        }
    }

    /// `--scale <f>`: the experiment scale (default 1/16).
    pub fn scale(&self) -> Scale {
        match self.get::<f64>("scale") {
            None => Scale::default_experiment(),
            Some(v) if v > 0.0 && v.is_finite() => Scale(v),
            Some(v) => self.fail(&format!("--scale must be positive and finite, got {v}")),
        }
    }

    /// `--days <n>`: experiment duration (default 30 — the paper's "one
    /// month period"). See [`Self::days_or`].
    pub fn days(&self) -> u64 {
        self.days_or(30)
    }

    /// `--days <n>`, `default` when absent. Zero days is refused — an
    /// empty trace would print a table of 0.000 efficiencies — and so is
    /// a count whose milliseconds overflow.
    pub fn days_or(&self, default: u64) -> u64 {
        let days: u64 = self.get("days").unwrap_or(default);
        if days == 0 {
            self.fail("--days must be at least 1, got 0");
        }
        if days.checked_mul(DurationMs::DAY.as_millis()).is_none() {
            self.fail(&format!("--days {days}: too many days"));
        }
        days
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new("test", line.split_whitespace().map(String::from))
    }

    fn strings(values: &[&str]) -> Option<Vec<String>> {
        Some(values.iter().map(|v| v.to_string()).collect())
    }

    #[test]
    fn takes_values_switches_and_operands_in_any_order() {
        let a = args("--csv --days 7 --diff a.jsonl b.jsonl --scale 0.5");
        assert_eq!(a.take("scale", 1), Ok(strings(&["0.5"])));
        assert_eq!(a.take("days", 1), Ok(strings(&["7"])));
        assert_eq!(a.take("events", 1), Ok(None));
        assert_eq!(a.take("csv", 0), Ok(strings(&[])));
        assert_eq!(a.take("diff", 2), Ok(strings(&["a.jsonl", "b.jsonl"])));
        assert!(a.rest.borrow().is_empty());
        assert_eq!(args("--days 7").get::<u64>("days"), Some(7));
    }

    #[test]
    fn unread_tokens_are_left_for_finish() {
        let a = args("--scale 0.5 --alpha 4");
        assert_eq!(a.take("scale", 1), Ok(strings(&["0.5"])));
        assert_eq!(*a.rest.borrow(), ["--alpha", "4"]);
        // Operands are what the flags leave behind, in order.
        let a = args("a.jsonl --in x b.jsonl");
        assert_eq!(a.take("in", 1), Ok(strings(&["x"])));
        assert_eq!(
            (a.operand("<a>"), a.operand("<b>")),
            ("a.jsonl".into(), "b.jsonl".into())
        );
        assert!(a.rest.borrow().is_empty());
        // A repeated flag is read once; the repeat is left over.
        let a = args("--days 1 --days 2");
        assert_eq!(a.take("days", 1), Ok(strings(&["1"])));
        assert_eq!(*a.rest.borrow(), ["--days", "2"]);
    }

    #[test]
    fn a_flag_without_its_values_is_an_error() {
        assert!(args("--scale").take("scale", 1).is_err());
        assert!(args("--scale --days 3").take("scale", 1).is_err());
        assert!(args("--diff a.jsonl").take("diff", 2).is_err());
        // Negative numbers are values, not flags.
        assert_eq!(args("--tol -1").take("tol", 1), Ok(strings(&["-1"])));
    }
}
