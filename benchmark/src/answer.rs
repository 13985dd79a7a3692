//! One reply as the benchmark reads it, whichever transport carried it.

use sciborq_core::ApproximateAnswer;
use sciborq_serve::json::Json;
use sciborq_serve::ServerReply;

/// The answer fields of an `ok` aggregate reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub value: Option<f64>,
    pub ci: Option<(f64, f64)>,
    pub level: String,
    pub rows_scanned: u64,
    pub escalations: u64,
    pub elapsed_us: f64,
    pub queued_us: f64,
    pub error_bound_met: bool,
    pub time_bound_met: bool,
    /// Per-level `(level, elapsed_micros)` as the engine measured them: from
    /// the embedded trace on the wire (when the server collects traces), from
    /// `level_scans` in process.
    pub trace_levels: Vec<(String, f64)>,
}

/// The fields that must repeat exactly for the same request on the same
/// data: floats by bit pattern, so "bit for bit" means what it says.
pub type AnswerKey = (Option<u64>, Option<(u64, u64)>, String, u64, u64);

impl Answer {
    /// Parse a wire reply line; `None` unless it is an `ok` aggregate reply.
    pub fn from_line(line: &str) -> Option<Answer> {
        let doc = Json::parse(line).ok()?;
        if doc.get("status")?.as_str()? != "ok" {
            return None;
        }
        let body = doc.get("answer")?;
        let num = |key: &str| body.get(key).and_then(Json::as_f64);
        let trace_levels = body
            .get("trace")
            .and_then(|t| t.get("levels"))
            .and_then(Json::as_arr)
            .map(|levels| {
                levels
                    .iter()
                    .filter_map(|l| {
                        Some((
                            l.get("level")?.as_str()?.to_owned(),
                            l.get("elapsed_micros")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(Answer {
            value: num("value"),
            ci: num("ci_lower").zip(num("ci_upper")),
            level: body.get("level")?.as_str()?.to_owned(),
            rows_scanned: num("rows_scanned")? as u64,
            escalations: num("escalations")? as u64,
            elapsed_us: num("elapsed_us")?,
            queued_us: num("queued_micros")?,
            error_bound_met: body.get("error_bound_met")?.as_bool()?,
            time_bound_met: body.get("time_bound_met")?.as_bool()?,
            trace_levels,
        })
    }

    /// Read an in-process reply; `None` unless it carries an aggregate answer.
    pub fn from_reply(reply: &ServerReply) -> Option<Answer> {
        let ServerReply::Aggregate { answer, queued, .. } = reply else {
            return None;
        };
        Some(Answer::from_aggregate(answer, queued.as_micros() as f64))
    }

    pub fn from_aggregate(answer: &ApproximateAnswer, queued_us: f64) -> Answer {
        Answer {
            value: answer.value.filter(|v| v.is_finite()),
            ci: answer.interval.map(|ci| (ci.lower, ci.upper)),
            level: answer.level.name(),
            rows_scanned: answer.rows_scanned,
            escalations: answer.escalations as u64,
            elapsed_us: answer.elapsed.as_micros() as f64,
            queued_us,
            error_bound_met: answer.error_bound_met,
            time_bound_met: answer.time_bound_met,
            trace_levels: answer
                .level_scans
                .iter()
                .map(|scan| (scan.level.name(), scan.elapsed.as_micros() as f64))
                .collect(),
        }
    }

    pub fn key(&self) -> AnswerKey {
        (
            self.value.map(f64::to_bits),
            self.ci.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
            self.level.clone(),
            self.rows_scanned,
            self.escalations,
        )
    }

    /// Whether the confidence interval contains `exact` (an exact answer's
    /// degenerate interval contains it trivially).
    pub fn covers(&self, exact: f64) -> bool {
        self.ci.is_some_and(|(lo, hi)| lo <= exact && exact <= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"id":3,"status":"ok","answer":{"query":"q","value":226300,"ci_lower":217558.9,"ci_upper":235041.1,"confidence":0.95,"level":"layer-2","rows_scanned":20000,"escalations":0,"elapsed_us":159,"error_bound_met":true,"time_bound_met":true,"downgraded":false,"degraded":false,"queued_micros":4,"trace":{"levels":[{"level":"layer-2","rows_scanned":20000,"elapsed_micros":91}]}}}"#;

    #[test]
    fn ok_replies_parse_and_others_do_not() {
        let answer = Answer::from_line(OK).unwrap();
        assert_eq!(answer.value, Some(226_300.0));
        assert_eq!(answer.level, "layer-2");
        assert_eq!(answer.rows_scanned, 20_000);
        assert_eq!(answer.queued_us, 4.0);
        assert_eq!(answer.trace_levels, vec![("layer-2".to_owned(), 91.0)]);
        assert!(answer.covers(226_000.0) && !answer.covers(240_000.0));
        assert!(
            Answer::from_line(r#"{"id":3,"status":"overloaded","reason":"queue-full"}"#).is_none()
        );
        assert!(Answer::from_line("not json").is_none());
    }

    #[test]
    fn keys_compare_floats_by_bits() {
        let a = Answer::from_line(OK).unwrap();
        let mut b = a.clone();
        assert_eq!(a.key(), b.key());
        b.value = Some(226_300.000_000_000_03);
        assert_ne!(a.key(), b.key());
        b = a.clone();
        b.elapsed_us = 1.0; // timing is not part of the key
        assert_eq!(a.key(), b.key());
    }
}
