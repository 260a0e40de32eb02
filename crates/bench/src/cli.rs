//! Plain `std::env::args` flag parsing for the sweep binaries.
//!
//! `bin/matrix` accepts every flag below. `bin/all` accepts
//! `--threads`, `--cells`, `--models`, `--metrics` and `--trace-out`,
//! and exits with [`EXIT_USAGE`] on any other:
//!
//! * `--threads N` — size of the process-wide worker pool (must come
//!   before the first sweep runs; applied via
//!   `tp_sched::configure_global_threads`).
//! * `--cells SPEC` — restrict the matrix to the given cell indices,
//!   e.g. `--cells 0..7`, `--cells 3`, `--cells 0..4,9,12..14`
//!   (`a..b` is half-open). This is also how a sweep is sharded across
//!   processes: give each worker a disjoint slice.
//! * `--models N` — use only the first `N` of the default time models.
//! * `--cache PATH` — back the sweep with the content-addressed proof
//!   cache (`tp_core::cache`): load `PATH` if it exists, replay
//!   validated hits, prove only changed cells, and append each proved
//!   cell to `PATH` as it completes, fsynced. A killed sweep loses at
//!   most the cell in flight: the next run drops a torn final group and
//!   resumes from the rest. Reports stay byte-identical to an uncached
//!   run; the hit/re-prove statistics go to stderr. A cache file that
//!   fails wire parsing before its final group exits with
//!   [`EXIT_MALFORMED`]; entries that parse but fail validation are
//!   rejected and re-proved (exit 0).
//!
//! Telemetry flags, all off by default so the proof hot path keeps its
//! null-sink fast path:
//!
//! * `--metrics` — install a counting telemetry sink and print the
//!   human summary table (pool/cache/exhaustive counters, span
//!   aggregates) to stderr after the run.
//! * `--trace-out FILE` — install a JSON-lines tracing sink and write
//!   every span plus a machine-readable run manifest to `FILE`.
//! * `--progress` — heartbeat to stderr (cells completed / total, ETA)
//!   while a grid runs. An explicit flag is always honored — including
//!   under redirection, so daemonised/CI runs can log heartbeats; only
//!   the default-on behavior (no flag) requires stderr to be a TTY.
//!
//! `bin/matrix` additionally understands the scale-out modes:
//!
//! * `--worker` — prove the selected cells and print wire records
//!   (`tp_core::wire`) to stdout instead of a report.
//! * `--merge FILE...` — parse worker outputs and print the merged
//!   report, identical to a single-process run over the same cells.

use std::ops::RangeInclusive;

/// Exit code for usage errors (unknown flags, bad `--cells` specs).
pub const EXIT_USAGE: i32 = 2;

/// Exit code for malformed *input* — a `--cache` file that fails wire
/// parsing. Distinct from [`EXIT_USAGE`] and, crucially, from the
/// silent-degradation path: a cache entry that parses but fails the
/// validation gauntlet is rejected and re-proved (exit 0, counted in
/// the stderr `cache:` stats), while a file the parser cannot read at
/// all is untrusted input and aborts loudly. `tp-serve` mirrors the
/// same split as protocol codes (`code=malformed` vs a normal `DONE`
/// with nonzero `rejected`).
pub const EXIT_MALFORMED: i32 = 3;

/// Parsed command line for the sweep binaries.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--cells SPEC`, as its segments ([`parse_cell_spec`]); expanded
    /// only once bounded by the matrix ([`SweepArgs::select_cells`]).
    pub cells: Option<Vec<RangeInclusive<usize>>>,
    /// `--models N`.
    pub models: Option<usize>,
    /// `--cache PATH`.
    pub cache: Option<String>,
    /// `--worker`.
    pub worker: bool,
    /// `--merge FILE...` (everything after the flag).
    pub merge: Vec<String>,
    /// `--metrics`.
    pub metrics: bool,
    /// `--trace-out FILE`.
    pub trace_out: Option<String>,
    /// `--progress`.
    pub progress: bool,
}

impl SweepArgs {
    /// Parse `args` (without the program name). Returns an error string
    /// suitable for printing next to the usage text.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<SweepArgs, String> {
        let mut out = SweepArgs::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    out.threads = Some(n);
                }
                "--cells" => {
                    let v = args.next().ok_or("--cells needs a value")?;
                    out.cells = Some(parse_cell_spec(&v)?);
                }
                "--models" => {
                    let v = args.next().ok_or("--models needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --models {v:?}"))?;
                    if n == 0 {
                        return Err("--models must be at least 1".into());
                    }
                    out.models = Some(n);
                }
                "--cache" => {
                    let v = args.next().ok_or("--cache needs a path")?;
                    out.cache = Some(v);
                }
                "--worker" => out.worker = true,
                "--metrics" => out.metrics = true,
                "--trace-out" => {
                    let v = args.next().ok_or("--trace-out needs a path")?;
                    out.trace_out = Some(v);
                }
                "--progress" => out.progress = true,
                "--merge" => {
                    out.merge.extend(args.by_ref());
                    if out.merge.is_empty() {
                        return Err("--merge needs at least one file".into());
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if out.worker && !out.merge.is_empty() {
            return Err("--worker and --merge are mutually exclusive".into());
        }
        if out.cache.is_some() && !out.merge.is_empty() {
            return Err("--cache does not apply to --merge".into());
        }
        if out.trace_out.is_some() && !out.merge.is_empty() {
            return Err("--trace-out does not apply to --merge".into());
        }
        Ok(out)
    }

    /// The cell indices to run given a matrix of `total` cells: the
    /// `--cells` selection (validated against `total`) or all of them.
    pub fn select_cells(&self, total: usize) -> Result<Vec<usize>, String> {
        match &self.cells {
            None => Ok((0..total).collect()),
            Some(spec) => expand_cell_spec(spec, total).map_err(|bad| {
                format!("--cells index {bad} out of range (matrix has {total} cells)")
            }),
        }
    }
}

/// Parse a cell spec into its segments: comma-separated indices and
/// half-open `a..b` ranges, e.g. `0..4,9,12..14` → `[0..=3, 9..=9,
/// 12..=13]`. Nothing is expanded here, so a spec costs its own length
/// whatever indices it names; [`expand_cell_spec`] bounds it by the
/// matrix first. Overlapping segments are rejected so shard specs
/// cannot silently double-prove a cell.
pub fn parse_cell_spec(spec: &str) -> Result<Vec<RangeInclusive<usize>>, String> {
    let mut out = Vec::new();
    // The disjoint segments so far, start to end.
    let mut seen = std::collections::BTreeMap::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty segment in cell spec {spec:?}"));
        }
        let segment = if let Some((a, b)) = part.split_once("..") {
            let a: usize = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
            let b: usize = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
            if a >= b {
                return Err(format!("empty range {part:?}"));
            }
            a..=b - 1
        } else {
            let i = part
                .parse()
                .map_err(|_| format!("bad cell index {part:?}"))?;
            i..=i
        };
        // The segment's first index an earlier one already selected:
        // its start, if the segment before it reaches that far, else
        // the first later segment start it covers.
        let (start, end) = (*segment.start(), *segment.end());
        let twice = seen
            .range(..=start)
            .next_back()
            .filter(|&(_, &e)| e >= start)
            .map(|_| start)
            .or_else(|| seen.range(start..=end).next().map(|(&s, _)| s));
        if let Some(i) = twice {
            return Err(format!("cell index {i} selected twice in {spec:?}"));
        }
        seen.insert(start, end);
        out.push(segment);
    }
    Ok(out)
}

/// The indices `spec` selects in a matrix of `total` cells, in spec
/// order, or the first one out of range. Every segment is checked
/// before any is expanded, so the result never holds more than `total`
/// indices.
pub fn expand_cell_spec(spec: &[RangeInclusive<usize>], total: usize) -> Result<Vec<usize>, usize> {
    if let Some(r) = spec.iter().find(|r| *r.end() >= total) {
        return Err((*r.start()).max(total));
    }
    Ok(spec.iter().cloned().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_sweep_shaping_flags() {
        let a = SweepArgs::parse(strs(&[
            "--threads",
            "4",
            "--cells",
            "0..3,7",
            "--models",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.cells, Some(vec![0..=2, 7..=7]));
        assert_eq!(a.models, Some(2));
        assert!(!a.worker);
    }

    #[test]
    fn parses_cache_flag() {
        let a = SweepArgs::parse(strs(&["--cache", "proofs.cache"])).unwrap();
        assert_eq!(a.cache.as_deref(), Some("proofs.cache"));
        assert_eq!(SweepArgs::default().cache, None);
        assert!(SweepArgs::parse(strs(&["--cache"])).is_err());
        // A cached shard is a valid shard; a cached merge is not (the
        // merge proves nothing, so a cache could neither hit nor fill).
        let w = SweepArgs::parse(strs(&["--worker", "--cache", "c"])).unwrap();
        assert!(w.worker && w.cache.is_some());
        assert!(SweepArgs::parse(strs(&["--cache", "c", "--merge", "a"])).is_err());
    }

    #[test]
    fn parses_journal_flags() {
        // The checkpoint journal is the `--cache` file now. The old flag
        // is refused, so a script still passing it fails loudly instead
        // of running without the checkpoint it asked for.
        let err = SweepArgs::parse(strs(&["--journal", "run.journal"])).unwrap_err();
        assert!(err.contains("unknown argument \"--journal\""), "{err}");
        // The double-run audit retired too: cold runs are always sound,
        // so a script that still asks for the audit fails loudly.
        let err = SweepArgs::parse(strs(&["--replay-check"])).unwrap_err();
        assert!(err.contains("unknown argument \"--replay-check\""), "{err}");
        let c = SweepArgs::parse(strs(&["--worker", "--cache", "run.cache"])).unwrap();
        assert!(c.worker && c.cache.is_some());
    }

    #[test]
    fn parses_worker_and_merge_modes() {
        let w = SweepArgs::parse(strs(&["--worker", "--cells", "5"])).unwrap();
        assert!(w.worker);
        let m = SweepArgs::parse(strs(&["--merge", "a.txt", "b.txt"])).unwrap();
        assert_eq!(m.merge, vec!["a.txt", "b.txt"]);
        assert!(SweepArgs::parse(strs(&["--worker", "--merge", "a"])).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let a =
            SweepArgs::parse(strs(&["--metrics", "--trace-out", "t.jsonl", "--progress"])).unwrap();
        assert!(a.metrics && a.progress);
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        let d = SweepArgs::default();
        assert!(!d.metrics && !d.progress && d.trace_out.is_none());
        assert!(SweepArgs::parse(strs(&["--trace-out"])).is_err());
        // A traced worker shard is fine; a traced merge proves nothing.
        let w = SweepArgs::parse(strs(&["--worker", "--trace-out", "t"])).unwrap();
        assert!(w.worker && w.trace_out.is_some());
        assert!(SweepArgs::parse(strs(&["--trace-out", "t", "--merge", "a"])).is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_cell_spec("3..3").is_err());
        assert!(parse_cell_spec("1,1").is_err());
        assert!(parse_cell_spec("x").is_err());
        assert!(parse_cell_spec("0..2,1").is_err(), "overlap is a duplicate");
        // The duplicate named is the first one in spec order.
        for (spec, twice) in [
            ("0..2,1", 1),
            ("5..9,0..6", 5),
            ("4,2..8", 4),
            ("3..5,0..4", 3),
        ] {
            let err = parse_cell_spec(spec).unwrap_err();
            assert!(
                err.contains(&format!("cell index {twice} selected twice")),
                "{spec}: {err}"
            );
        }
        assert!(
            parse_cell_spec("0..2,2..4,4").is_ok(),
            "adjacent segments are disjoint"
        );
        // Huge ranges parse to one segment each and are refused against
        // the matrix before anything is expanded.
        let max = usize::MAX;
        for spec in [
            format!("0..{max}"),
            "0..4000000000".to_string(),
            format!("{max}"),
        ] {
            let segments = parse_cell_spec(&spec).unwrap();
            assert_eq!(segments.len(), 1, "{spec}");
            assert!(expand_cell_spec(&segments, 21).is_err(), "{spec}");
            let a = SweepArgs::parse(strs(&["--cells", &spec])).unwrap();
            let err = a.select_cells(21).unwrap_err();
            assert!(
                err.contains("out of range (matrix has 21 cells)"),
                "{spec}: {err}"
            );
        }
        assert!(parse_cell_spec(&format!("{max}..{max}")).is_err());
        assert!(SweepArgs::parse(strs(&["--threads", "0"])).is_err());
        assert!(SweepArgs::parse(strs(&["--bogus"])).is_err());
    }

    #[test]
    fn select_cells_validates_range() {
        let a = SweepArgs::parse(strs(&["--cells", "18..21"])).unwrap();
        assert_eq!(a.select_cells(21).unwrap(), vec![18, 19, 20]);
        assert!(a.select_cells(19).is_err());
        // Spec order is kept, and the first index out of range is named.
        let a = SweepArgs::parse(strs(&["--cells", "9,0..3,30,12..21"])).unwrap();
        assert_eq!(a.select_cells(31).unwrap().len(), 14);
        assert_eq!(
            a.select_cells(21).unwrap_err(),
            "--cells index 30 out of range (matrix has 21 cells)"
        );
        assert_eq!(expand_cell_spec(&[12..=39], 21), Err(21));
        assert_eq!(expand_cell_spec(&[9..=9, 0..=2], 21), Ok(vec![9, 0, 1, 2]));
        let none = SweepArgs::default();
        assert_eq!(none.select_cells(3).unwrap(), vec![0, 1, 2]);
    }
}
