//! Verdict checking and failure accounting.
//!
//! Every response is compared with direct `Scanner::score_with_members`
//! output for the same bytecode on the same snapshot: its id, verdict and
//! 6-decimal probability must all match.

use phishinghook_models::{Scanner, Verdict};

/// What a correct response for one request carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// `phishing` or `benign`.
    pub verdict: &'static str,
    /// The combined probability rendered to 6 decimals.
    pub proba: String,
}

/// Scores `codes` directly, in batches of 64 (the serving batch size).
pub fn expect_all(scanner: &mut Scanner, codes: &[&[u8]]) -> Vec<Expect> {
    let mut out = Vec::with_capacity(codes.len());
    for chunk in codes.chunks(64) {
        let (probas, _) = scanner.score_with_members(chunk);
        out.extend(probas.into_iter().map(|p| Expect {
            verdict: Verdict::from_proba(p).as_str(),
            proba: format!("{p:.6}"),
        }));
    }
    out
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A verdict equal to the direct score.
    Verdict,
    /// A verdict that differs from the direct score (or a wrong id).
    Mismatch,
    /// Refused with the typed overload response.
    Overload,
    /// Answered with a typed timeout.
    Timeout,
    /// The scoring worker failed on the request's batch.
    Internal,
    /// Any other error response.
    Error,
}

/// The text of JSON string field `key` in `body` (first occurrence).
fn string_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag)? + tag.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// The text of JSON number field `key` in `body` (first occurrence; the
/// top-level probability precedes the per-model ones).
fn number_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let len = body[start..].find([',', '}'])?;
    Some(&body[start..start + len])
}

/// Classifies one v2 response body for request `id`.
pub fn classify(body: &str, id: &str, expect: &Expect) -> Outcome {
    if body.contains("\"code\":\"overloaded\"") {
        return Outcome::Overload;
    }
    if body.contains("\"code\":\"timeout\"") {
        return Outcome::Timeout;
    }
    if body.contains("\"code\":\"internal\"") {
        return Outcome::Internal;
    }
    let Some(verdict) = string_field(body, "verdict") else {
        return Outcome::Error;
    };
    let same = string_field(body, "id") == Some(id)
        && verdict == expect.verdict
        && number_field(body, "proba") == Some(expect.proba.as_str());
    if same {
        Outcome::Verdict
    } else {
        Outcome::Mismatch
    }
}

/// Reads counter `key` from a `stats` response line.
pub fn stats_counter(stats: &str, key: &str) -> Option<u64> {
    number_field(stats, key)?.trim().parse().ok()
}

/// Requests sent and how they ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Correct verdicts.
    pub verdicts: u64,
    /// Typed overload refusals.
    pub overloads: u64,
    /// Error responses.
    pub errors: u64,
    /// Typed timeouts.
    pub timeouts: u64,
    /// Typed internal errors.
    pub internals: u64,
    /// Verdicts that differ from the direct score.
    pub mismatches: u64,
}

impl Tally {
    /// Counts one response.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Verdict => self.verdicts += 1,
            Outcome::Mismatch => self.mismatches += 1,
            Outcome::Overload => self.overloads += 1,
            Outcome::Timeout => self.timeouts += 1,
            Outcome::Internal => self.internals += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.verdicts += other.verdicts;
        self.overloads += other.overloads;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.internals += other.internals;
        self.mismatches += other.mismatches;
    }

    /// Requests that did not end as a correct verdict.
    pub fn failed(&self) -> u64 {
        self.overloads + self.errors + self.timeouts + self.internals + self.mismatches
    }

    /// `failed / sent` (0 when nothing was sent).
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }

    /// Every request sent got exactly one counted response.
    pub fn balanced(&self) -> bool {
        self.sent == self.verdicts + self.failed()
    }

    /// Outputs are correct: balanced, and no wrong or broken answers.
    /// Overloads and timeouts are load outcomes, not wrong answers.
    pub fn correct(&self) -> bool {
        self.balanced() && self.mismatches == 0 && self.errors == 0 && self.internals == 0
    }

    /// One-line accounting.
    pub fn render(&self) -> String {
        format!(
            "sent {} verdicts {} overloads {} errors {} timeouts {} internals {} mismatches {} failed_frac {:.6}{}",
            self.sent,
            self.verdicts,
            self.overloads,
            self.errors,
            self.timeouts,
            self.internals,
            self.mismatches,
            self.failed_frac(),
            if self.balanced() { "" } else { " UNBALANCED: responses missing" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect(verdict: &'static str, proba: &str) -> Expect {
        Expect {
            verdict,
            proba: proba.to_owned(),
        }
    }

    #[test]
    fn classifies_every_response_shape() {
        let ok = r#"{"proto":2,"id":"7","verdict":"phishing","proba":0.996068,"model_version":"hsc-ensemble/v1","per_model":[{"name":"Random Forest","proba":0.990000}]}"#;
        let e = expect("phishing", "0.996068");
        assert_eq!(classify(ok, "7", &e), Outcome::Verdict);
        assert_eq!(classify(ok, "8", &e), Outcome::Mismatch);
        assert_eq!(
            classify(ok, "7", &expect("phishing", "0.990000")),
            Outcome::Mismatch
        );
        assert_eq!(
            classify(ok, "7", &expect("benign", "0.996068")),
            Outcome::Mismatch
        );
        let over = r#"{"proto":2,"id":"7","error":"server overloaded","code":"overloaded"}"#;
        assert_eq!(classify(over, "7", &e), Outcome::Overload);
        let late = r#"{"proto":2,"id":"7","error":"deadline","code":"timeout"}"#;
        assert_eq!(classify(late, "7", &e), Outcome::Timeout);
        let bad = r#"{"proto":2,"id":"7","error":"not valid hex bytecode"}"#;
        assert_eq!(classify(bad, "7", &e), Outcome::Error);
    }

    #[test]
    fn tally_balances_sent_against_outcomes() {
        let mut t = Tally {
            sent: 3,
            ..Tally::default()
        };
        t.record(Outcome::Verdict);
        t.record(Outcome::Overload);
        assert!(!t.balanced());
        t.record(Outcome::Verdict);
        assert!(t.balanced() && t.correct());
        assert_eq!(t.failed(), 1);
        t.sent += 1;
        t.record(Outcome::Mismatch);
        assert!(t.balanced() && !t.correct());
        assert!((t.failed_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reads_stats_counters() {
        let stats = r#"{"proto":2,"stats":{"scheduler":{"submitted":10,"scored":9,"errors":0,"overloads":0,"batches":3},"cache":{"hits":4,"misses":6}}}"#;
        assert_eq!(stats_counter(stats, "scored"), Some(9));
        assert_eq!(stats_counter(stats, "batches"), Some(3));
        assert_eq!(stats_counter(stats, "hits"), Some(4));
        assert_eq!(stats_counter(stats, "nope"), None);
    }
}
