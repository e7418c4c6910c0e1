//! The oracle: what every reply must contain.
//!
//! Expected rows are computed once per distinct query text on the
//! generator's source graph (a live, unfrozen `PropertyGraph`) — never
//! on the frozen vectorized path the server is measured on. Texts the
//! planner can seed from an index run through the row-at-a-time
//! planned matcher; the rest through the unplanned reference
//! evaluator. Rows compare as multisets, since no workload query
//! orders its output.

use gdm_core::{GdmError, Result, Value};
use gdm_graphs::PropertyGraph;
use gdm_query::cypher::{self, CypherStatement};
use gdm_query::SelectQuery;
use gdm_server::Response;
use std::collections::HashMap;
use std::io;

/// One query's expected answer, in canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    columns: Vec<String>,
    rows: Vec<String>,
}

impl Expected {
    /// Canonical form of a result: each row rendered, rows sorted.
    pub fn of(columns: &[String], rows: &[Vec<Value>]) -> Self {
        let mut rows: Vec<String> = rows.iter().map(|r| canonical_row(r)).collect();
        rows.sort_unstable();
        Expected {
            columns: columns.to_vec(),
            rows,
        }
    }
}

fn canonical_row(row: &[Value]) -> String {
    format!("{row:?}")
}

/// How one reply fared against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The reply's rows equal the expected rows.
    Correct,
    /// The socket failed (error, timeout, closed session).
    Transport,
    /// The governor stopped the query.
    Interrupted,
    /// Admission control shed the query.
    Overloaded,
    /// A structured error reply, or a reply of the wrong kind.
    Error,
    /// Rows or columns differ from the oracle's.
    Mismatch,
}

impl Outcome {
    /// Whether the request counts as failed.
    pub fn failed(self) -> bool {
        self != Outcome::Correct
    }
}

/// Expected answers keyed by query text.
#[derive(Debug, Default)]
pub struct Oracle {
    answers: HashMap<String, Expected>,
}

impl Oracle {
    /// Computes the expected answer of every distinct text in `texts`
    /// over `graph`; `reference` picks the texts that run through the
    /// unplanned reference evaluator instead of the planned matcher.
    pub fn build<'a>(
        graph: &PropertyGraph,
        texts: impl IntoIterator<Item = &'a str>,
        reference: impl Fn(&str) -> bool,
    ) -> Result<Oracle> {
        let mut answers = HashMap::new();
        for text in texts {
            if answers.contains_key(text) {
                continue;
            }
            let select = parse_select(text)?;
            let rs = if reference(text) {
                gdm_query::evaluate_select_unplanned(graph, &select)?
            } else {
                gdm_query::evaluate_select_planned(graph, &select)?.0
            };
            answers.insert(text.to_owned(), Expected::of(&rs.columns, &rs.rows));
        }
        Ok(Oracle { answers })
    }

    /// The expected answer for `text`.
    #[cfg(test)]
    pub fn expected(&self, text: &str) -> Option<&Expected> {
        self.answers.get(text)
    }

    /// Number of distinct texts the oracle answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Classifies one reply to `text`.
    pub fn check(&self, text: &str, reply: &io::Result<Response>) -> Outcome {
        match reply {
            Err(_) => Outcome::Transport,
            Ok(Response::Rows(r)) => match self.answers.get(text) {
                Some(want) if *want == Expected::of(&r.columns, &r.rows) => Outcome::Correct,
                _ => Outcome::Mismatch,
            },
            Ok(Response::Interrupted(_)) => Outcome::Interrupted,
            Ok(Response::Overloaded(_)) => Outcome::Overloaded,
            Ok(_) => Outcome::Error,
        }
    }

    /// A canonical checksum of every expected answer: FNV-1a over the
    /// texts in sorted order, each followed by its columns and sorted
    /// rows. Equal seeds give equal checksums; any change to an answer
    /// changes it.
    pub fn checksum(&self) -> u64 {
        let mut texts: Vec<&String> = self.answers.keys().collect();
        texts.sort_unstable();
        let mut h = Fnv::default();
        for text in texts {
            let want = &self.answers[text];
            h.write(text.as_bytes());
            for part in want.columns.iter().chain(&want.rows) {
                h.write(&[0]);
                h.write(part.as_bytes());
            }
            h.write(&[0xff]);
        }
        h.0
    }
}

/// Parses `text` as a read query.
pub fn parse_select(text: &str) -> Result<SelectQuery> {
    match cypher::parse(text.trim())? {
        CypherStatement::Select(s) => Ok(*s),
        _ => Err(GdmError::InvalidArgument(format!(
            "not a read query: {text}"
        ))),
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use gdm_server::protocol::{Interrupted, Rows};

    fn small() -> (PropertyGraph, Vec<String>) {
        let graph = gdm_bench::social_graph(gen::social_params(200, 5));
        let texts = vec![
            gen::age_query("person7"),
            gen::one_hop_query("person7"),
            gen::fof_count_query("person7"),
            gen::community_two_hop_query(3),
        ];
        (graph, texts)
    }

    #[test]
    fn correct_reply_passes_and_damaged_replies_fail() {
        let (graph, texts) = small();
        let oracle = Oracle::build(&graph, texts.iter().map(String::as_str), |_| false).unwrap();
        let text = &gen::one_hop_query("person7");
        let select = parse_select(text).unwrap();
        let rs = gdm_query::evaluate_select_unplanned(&graph, &select).unwrap();
        assert!(rs.rows.len() >= 2, "the probe needs several rows");

        let good = Response::Rows(Rows {
            columns: rs.columns.clone(),
            rows: rs.rows.iter().rev().cloned().collect(),
            cached_plan: true,
        });
        assert_eq!(oracle.check(text, &Ok(good)), Outcome::Correct);

        let mut dropped = rs.rows.clone();
        dropped.pop();
        let dropped = Response::Rows(Rows {
            columns: rs.columns.clone(),
            rows: dropped,
            cached_plan: false,
        });
        assert_eq!(oracle.check(text, &Ok(dropped)), Outcome::Mismatch);

        let mut added = rs.rows.clone();
        added.push(rs.rows[0].clone());
        let added = Response::Rows(Rows {
            columns: rs.columns.clone(),
            rows: added,
            cached_plan: false,
        });
        assert_eq!(oracle.check(text, &Ok(added)), Outcome::Mismatch);

        let interrupted = Response::Interrupted(Interrupted {
            reason: "deadline exceeded".into(),
            partial: rs.rows.len() as u64,
        });
        let outcome = oracle.check(text, &Ok(interrupted));
        assert_eq!(outcome, Outcome::Interrupted);
        assert!(outcome.failed());

        let transport = Err(io::Error::new(io::ErrorKind::TimedOut, "slow"));
        assert!(oracle.check(text, &transport).failed());
        // A text the oracle never saw cannot be confirmed.
        let stray = Response::Rows(Rows {
            columns: rs.columns.clone(),
            rows: rs.rows.clone(),
            cached_plan: false,
        });
        assert_eq!(
            oracle.check("MATCH (x) RETURN x.name", &Ok(stray)),
            Outcome::Mismatch
        );
    }

    #[test]
    fn planned_oracle_agrees_with_reference_evaluator() {
        let (graph, texts) = small();
        let planned = Oracle::build(&graph, texts.iter().map(String::as_str), |_| false).unwrap();
        let reference = Oracle::build(&graph, texts.iter().map(String::as_str), |_| true).unwrap();
        for t in &texts {
            assert_eq!(planned.expected(t), reference.expected(t), "{t}");
        }
        assert_eq!(planned.checksum(), reference.checksum());
        let other = gdm_bench::social_graph(gen::social_params(200, 6));
        let moved = Oracle::build(&other, texts.iter().map(String::as_str), |_| false).unwrap();
        assert_ne!(planned.checksum(), moved.checksum());
    }
}
