//! The report: a header naming the machine and the inputs, one line per
//! metric with unit and sample count, and the machine-readable last line.

use std::fmt::Write as _;

use crate::machine::Machine;
use crate::run::{round_median, Round, RunConfig, RunResult, Tally, TapeTimes};
use crate::stats::Samples;

/// `BENCHMARK.json` as it was when this binary was built. Its `end_to_end`
/// list names the metrics an untraced run hands the pipeline and its
/// `per_layer` list the ones a traced run does; `calibrate.py` moves the
/// issue's 15 metrics between the two lists, and no source changes.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry of one top-level list of BENCHMARK.json,
/// by plain text search: the file is flat and this package has no JSON
/// parser to lean on.
pub fn benchmark_list(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |item: &str, name: &str| {
        let at = item.find(&format!("\"{name}\"")).expect("field") + name.len() + 2;
        let rest = &item[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// The issue's 15 end-to-end metrics, as it defines them: set-up phase
/// timings are the median set-up round, served latencies the plain
/// quantile of every post-warm-up sample, `ops_per_s` the whole tape over
/// the serve phase's wall time.
pub fn end_to_end(
    rounds: &[Round],
    t: &mut TapeTimes,
    (f, e, s): (usize, usize, usize),
    rss_peak_mb: f64,
) -> Vec<Metric> {
    let n_rounds = rounds.len();
    let last = rounds.last().expect("a run has at least one round");
    let cells = last.filled_cells as f64;
    let query_p50_us = |round: &Round| {
        let mut pairs: Samples = round
            .relation_ns
            .iter()
            .zip(&round.sql_ns)
            .map(|(a, b)| a + b)
            .collect();
        pairs.us(0.5)
    };
    let queries: usize = rounds.iter().map(|x| x.sql_ns.len()).sum();
    vec![
        metric(
            "setup_s",
            round_median(rounds, |x| x.setup_s),
            "s",
            n_rounds,
        ),
        metric(
            "import_cells_per_s",
            round_median(rounds, |x| x.imported_cells as f64 / x.import_s),
            "1/s",
            n_rounds,
        ),
        metric(
            "relayout_s",
            round_median(rounds, |x| x.relayout_s),
            "s",
            n_rounds,
        ),
        metric(
            "recalc_s",
            round_median(rounds, |x| x.recalc_s),
            "s",
            n_rounds,
        ),
        metric(
            "query_p50_us",
            round_median(rounds, query_p50_us),
            "us",
            queries,
        ),
        metric(
            "reopen_s",
            round_median(rounds, |x| x.reopen_s),
            "s",
            n_rounds,
        ),
        metric("fetch_p50_us", t.fetch.us(0.5), "us", t.fetch.len()),
        metric("fetch_p90_us", t.fetch.us(0.9), "us", t.fetch.len()),
        metric("edit_p50_us", t.edit.us(0.5), "us", t.edit.len()),
        metric("edit_p90_us", t.edit.us(0.9), "us", t.edit.len()),
        metric("shift_p50_us", t.shift.us(0.5), "us", t.shift.len()),
        metric("ops_per_s", (f + e + s) as f64 / t.wall_s, "1/s", f + e + s),
        metric(
            "disk_bytes_per_cell",
            last.disk_bytes as f64 / cells,
            "B",
            1,
        ),
        metric(
            "resident_bytes_per_cell",
            last.resident_bytes as f64 / cells,
            "B",
            1,
        ),
        metric("rss_peak_mb", rss_peak_mb, "MiB", 1),
    ]
}

/// What either kind of run hands to `main`: the metrics to print, notes
/// for the reader, and the facts the header and the result line need.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub tally: Tally,
    pub pinned: bool,
    pub tape_hash: u64,
    pub tape_counts: (usize, usize, usize),
}

impl From<RunResult> for Outcome {
    fn from(mut r: RunResult) -> Outcome {
        let mut notes: Vec<String> = r
            .rounds
            .iter()
            .enumerate()
            .map(|(i, x)| {
                format!(
                    "round {i}: setup {:.3}s = generate {:.3} import {:.3} relayout {:.3} recalc {:.4} \
                     checkpoint {:.3} reopen {:.3} + queries, digests, listen, connect",
                    x.setup_s, x.generate_s, x.import_s, x.relayout_s, x.recalc_s, x.checkpoint_s, x.reopen_s
                )
            })
            .collect();
        notes.push(format!(
            "serve {:.3}s  verify {:.3}s",
            r.times.wall_s, r.verify_s
        ));
        Outcome {
            metrics: end_to_end(&r.rounds, &mut r.times, r.tape_counts, r.rss_peak_mb),
            notes,
            tally: r.tally,
            pinned: r.pinned,
            tape_hash: r.tape_hash,
            tape_counts: r.tape_counts,
        }
    }
}

/// Facts about the run that are not metrics.
pub struct Header<'a> {
    pub cfg: &'a RunConfig,
    pub trace: bool,
    pub pinned: bool,
    pub tape_hash: u64,
    pub tape_counts: (usize, usize, usize),
    pub git: String,
}

pub fn print_header(h: &Header<'_>) {
    let m = Machine::probe();
    let s = &h.cfg.sizes;
    println!(
        "bench_e2e  workload={}  seed={}  trace={}",
        h.cfg.workload.name(),
        h.cfg.seed,
        u8::from(h.trace)
    );
    println!(
        "  machine   cores={} affinity={:?} cpu=\"{}\" kernel={}",
        m.cores, m.affinity, m.cpu_model, m.kernel
    );
    println!("  storage   files in memory (MemFs), group commit, fsync = call");
    println!("  pinned    {} (serve phase on one CPU)", h.pinned);
    println!("  git       {}", h.git);
    println!(
        "  sizes     rows={} setup_rounds={} queries/round={}",
        s.rows, s.setup_rounds, s.queries
    );
    println!(
        "  tape      {:016x}  fetches={} edits={} shifts={} (first 5 % of each kind discarded)",
        h.tape_hash, h.tape_counts.0, h.tape_counts.1, h.tape_counts.2
    );
}

/// One line per metric. `calibrate.py` reads these lines, so that it sees
/// the issue's 15 metrics whichever of them the result line carries.
pub fn print_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metric>) {
    for m in metrics {
        println!("  {:<34} {:>18.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` on f64 prints every digit needed to round-trip.
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
