//! The service's line-oriented request grammar.
//!
//! One request per line, `COMMAND key=value …`. The verb set is small
//! and fixed ([`Request`]); `SUBMIT` reuses the sweep binaries' cell
//! spec syntax (`tp_bench::cli::parse_cell_spec`), so a shard spec
//! means the same thing on the command line and over the socket.
//!
//! Responses are blocks of lines terminated by a lone `.`:
//!
//! * `OK …` — first line of every successful response.
//! * `REC <wire record>` — one streamed `tp_core::wire` line; strip
//!   the prefix and the concatenation is byte-identical to
//!   `matrix --worker` stdout for the same subset.
//! * `DONE job=… proved=… failed=… hits=… missed=… rejected=… uncacheable=…`
//!   — a sweep's terminal line (or `CANCELLED job=…`, or
//!   `EXPIRED job=… streamed=… total=…` when `deadline_ms=` ran out).
//! * `ERR code=<code> msg=<text>` — failures. `code=malformed` is the
//!   protocol twin of the binaries' [`tp_bench::cli::EXIT_MALFORMED`]:
//!   unparseable input. A cache entry that parses but fails validation
//!   is *not* an error — it re-proves and shows up in `DONE` under
//!   `rejected=`, mirroring the exit-0 self-healing path.

use std::ops::RangeInclusive;

use tp_bench::cli::parse_cell_spec;

/// The sweep a `SUBMIT` line asks for.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmitSpec {
    /// `models=N` — first `N` default time models (whole family if
    /// absent); must match what a comparison `matrix` run uses.
    pub models: Option<usize>,
    /// `cells=SPEC` — subset of the matrix in `--cells` syntax, as its
    /// segments (expanded only once bounded by the matrix); the whole
    /// matrix if absent.
    pub cells: Option<Vec<RangeInclusive<usize>>>,
    /// `fault=IDX` — fault injection: detonate the Hi program of the
    /// cell at global index `IDX` (a chaos-testing knob; the cell
    /// yields an `err` record instead of a record group).
    pub fault: Option<usize>,
    /// `nocache` — bypass the cache front for this job.
    pub nocache: bool,
    /// `deadline_ms=N` — bound the wall-clock wait for this job's
    /// stream: on expiry the unstreamed cells come back as `err`
    /// records and the terminal line is `EXPIRED` instead of `DONE`
    /// (the sweep itself finishes in the background).
    pub deadline_ms: Option<u64>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PING` — liveness check.
    Ping,
    /// `SUBMIT …` — run a sweep, streaming records back.
    Submit(SubmitSpec),
    /// `STATUS` — list jobs and their progress.
    Status,
    /// `CANCEL job=N` — stop streaming job `N`'s records.
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// `METRICS` — dump the telemetry counters/spans and cache size.
    Metrics,
    /// `SHUTDOWN` — stop accepting connections and exit the serve loop.
    Shutdown,
}

/// Parse one request line. `Err` is a human-readable reason destined
/// for an `ERR code=malformed` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    let rest: Vec<&str> = tokens.collect();
    let no_args = |req: Request| {
        if rest.is_empty() {
            Ok(req)
        } else {
            Err(format!("{verb} takes no arguments"))
        }
    };
    match verb {
        "PING" => no_args(Request::Ping),
        "STATUS" => no_args(Request::Status),
        "METRICS" => no_args(Request::Metrics),
        "SHUTDOWN" => no_args(Request::Shutdown),
        "CANCEL" => {
            let [tok] = rest.as_slice() else {
                return Err("CANCEL needs exactly job=N".into());
            };
            let v = tok.strip_prefix("job=").ok_or("CANCEL needs job=N")?;
            let job = v.parse().map_err(|_| format!("bad job id {v:?}"))?;
            Ok(Request::Cancel { job })
        }
        "SUBMIT" => {
            let mut spec = SubmitSpec::default();
            for tok in rest {
                if tok == "nocache" {
                    spec.nocache = true;
                } else if let Some(v) = tok.strip_prefix("models=") {
                    let n: usize = v.parse().map_err(|_| format!("bad models={v:?}"))?;
                    if n == 0 {
                        return Err("models must be at least 1".into());
                    }
                    spec.models = Some(n);
                } else if let Some(v) = tok.strip_prefix("cells=") {
                    spec.cells = Some(parse_cell_spec(v)?);
                } else if let Some(v) = tok.strip_prefix("fault=") {
                    spec.fault = Some(v.parse().map_err(|_| format!("bad fault={v:?}"))?);
                } else if let Some(v) = tok.strip_prefix("deadline_ms=") {
                    let ms: u64 = v.parse().map_err(|_| format!("bad deadline_ms={v:?}"))?;
                    if ms == 0 {
                        return Err("deadline_ms must be at least 1".into());
                    }
                    spec.deadline_ms = Some(ms);
                } else {
                    return Err(format!("unknown SUBMIT field {tok:?}"));
                }
            }
            Ok(Request::Submit(spec))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_verb_set() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("  STATUS  "), Ok(Request::Status));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(
            parse_request("CANCEL job=7"),
            Ok(Request::Cancel { job: 7 })
        );
    }

    #[test]
    fn parses_submit_specs() {
        assert_eq!(
            parse_request("SUBMIT"),
            Ok(Request::Submit(SubmitSpec::default()))
        );
        assert_eq!(
            parse_request("SUBMIT models=1 cells=0..3,7 fault=2 nocache deadline_ms=250"),
            Ok(Request::Submit(SubmitSpec {
                models: Some(1),
                cells: Some(vec![0..=2, 7..=7]),
                fault: Some(2),
                nocache: true,
                deadline_ms: Some(250),
            }))
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB").is_err());
        assert!(parse_request("PING now").is_err());
        assert!(parse_request("CANCEL").is_err());
        assert!(parse_request("CANCEL job=x").is_err());
        assert!(parse_request("SUBMIT models=0").is_err());
        assert!(parse_request("SUBMIT cells=3..3").is_err());
        assert!(parse_request("SUBMIT cache=off").is_err());
        assert!(parse_request("SUBMIT deadline_ms=0").is_err());
        assert!(parse_request("SUBMIT deadline_ms=soon").is_err());
    }
}
