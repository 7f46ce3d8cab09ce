//! Answer checking, run after the window closes: every kept reply is
//! parsed and its `result` compared with the `sdp_oracle::served`
//! rendering of its problem, spread over the host's cores.

use crate::driver::{split_id, Kept, Run, FAILED};
use crate::workload::{Problem, Workload};
use sdp_serve::json;
use sdp_trace::json::Json;
use std::collections::BTreeMap;

/// What checking found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent.
    pub attempted: u64,
    /// Error replies, by error kind.
    pub errors: BTreeMap<String, u64>,
    /// Requests never answered.
    pub unanswered: u64,
    /// Replies with a wrong id, payload or envelope.
    pub wrong: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Verdict {
    /// Error replies + unanswered + wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors.values().sum::<u64>() + self.unanswered + self.wrong
    }

    /// Correct replies.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Folds in another verdict.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        for (kind, n) in other.errors {
            *self.errors.entry(kind).or_default() += n;
        }
        self.unanswered += other.unanswered;
        self.wrong += other.wrong;
        for e in other.examples {
            self.note(e);
        }
    }

    fn note(&mut self, what: String) {
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

/// Why one kept request failed.
enum Failure {
    Unanswered,
    Wrong(String),
    Error { kind: String, line: String },
}

/// Compares a reply's `result` with the oracle's rendering.  For
/// `chain` the oracle predicts the `cost` only; the served object must
/// also carry the array's `steps` and nothing else.
fn result_matches(problem: &Problem, result: &Json) -> bool {
    let expected = problem.expected();
    match problem {
        Problem::Chain { .. } => {
            let Json::Object(fields) = result else {
                return false;
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            keys == ["cost", "steps"]
                && json::get(result, "cost").map(Json::render) == Some(expected)
                && json::get(result, "steps").and_then(json::as_i64).is_some()
        }
        _ => result.render() == expected,
    }
}

fn check_one(run: &Run, wl: &Workload, k: &Kept) -> Result<(), Failure> {
    let line = run.line(k).ok_or(Failure::Unanswered)?;
    let text = String::from_utf8_lossy(line);
    if k.wrong {
        return Err(Failure::Wrong(format!(
            "differs from its reference: {text}"
        )));
    }
    let doc = match json::parse(&text) {
        Ok(doc) if split_id(line).map(|(id, _)| id) == Some(k.id) => doc,
        _ => return Err(Failure::Wrong(format!("bad reply line {text}"))),
    };
    if json::get(&doc, "ok").and_then(json::as_bool) != Some(true) {
        let kind = json::get(&doc, "error")
            .and_then(|e| json::get(e, "kind"))
            .and_then(json::as_str)
            .unwrap_or("unknown");
        return Err(Failure::Error {
            kind: kind.to_string(),
            line: text.into_owned(),
        });
    }
    let problem = wl.problem(k.problem);
    let good = json::get(&doc, "cached").and_then(json::as_bool).is_some()
        && json::get(&doc, "result").is_some_and(|r| result_matches(problem, r));
    if good {
        Ok(())
    } else {
        Err(Failure::Wrong(format!(
            "{text} ({}: oracle says {})",
            problem.class(),
            problem.expected()
        )))
    }
}

/// Checks every kept request of `run` on up to `threads` threads (the
/// others already matched their reference replies byte for byte) and
/// marks the latency of each failed request as [`FAILED`].
pub fn check(run: &mut Run, wl: &Workload, threads: usize) -> Verdict {
    let chunk = run.kept.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<(Verdict, Vec<(usize, usize)>)> = std::thread::scope(|s| {
        let run = &*run;
        let handles: Vec<_> = run
            .kept
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut v = Verdict::default();
                    let mut failed = Vec::new();
                    for k in part {
                        let Err(failure) = check_one(run, wl, k) else {
                            continue;
                        };
                        failed.push((k.interval as usize, k.pos as usize));
                        let id = k.id;
                        match failure {
                            Failure::Unanswered => {
                                v.unanswered += 1;
                                v.note(format!("request {id} unanswered"));
                            }
                            Failure::Wrong(what) => {
                                v.wrong += 1;
                                v.note(format!("request {id}: {what}"));
                            }
                            Failure::Error { kind, line } => {
                                v.note(format!("request {id}: error reply {line}"));
                                *v.errors.entry(kind).or_default() += 1;
                            }
                        }
                    }
                    (v, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checking threads do not panic"))
            .collect()
    });
    let mut verdict = Verdict {
        attempted: run.sent,
        ..Verdict::default()
    };
    for (v, failed) in parts {
        verdict.add(v);
        for (interval, pos) in failed {
            run.lat[interval][pos] = FAILED;
        }
    }
    verdict
}
