//! `bench_e2e`: the repository's one end-to-end benchmark. See README.md.

mod machine;
mod memfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use run::RunConfig;
use spec::{Sizes, Workload};

const USAGE: &str = "usage: bench_e2e --workload <scroll|cascade|structural|ingest_store> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--dir <path>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
    smoke: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut args = Args {
        workload: Workload::Scroll,
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
        dir: PathBuf::from(".bench_e2e"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--dir" => args.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".to_string());
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let started = std::time::Instant::now();
    let steal_before = machine::steal_ticks();
    let mut sizes = if args.smoke {
        Sizes::smoke(args.workload)
    } else {
        Sizes::full(args.workload, args.seconds)
    };
    if args.trace {
        // Set-up medians belong to the untraced run.
        sizes.setup_rounds = 1;
    }
    std::fs::create_dir_all(&args.dir).map_err(run::err("create data dir"))?;
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        sizes,
        data_root: args.dir.join(format!("data-{}", std::process::id())),
    };
    let outcome = if args.trace {
        let path = args
            .dir
            .join(format!("trace-{}.json", args.workload.name()));
        trace::run_traced(&cfg, &path)
    } else {
        run::run(&cfg).map(Outcome::from)
    };
    std::fs::remove_dir_all(&cfg.data_root).ok();
    let Outcome {
        metrics,
        notes,
        tally,
        pinned,
        tape_hash,
        tape_counts,
    } = outcome?;
    report::print_header(&report::Header {
        cfg: &cfg,
        trace: args.trace,
        pinned,
        tape_hash,
        tape_counts,
        git: machine::git_revision(),
    });
    // The result line carries the metrics BENCHMARK.json lists for this
    // kind of run. An untraced report also shows the issue's end-to-end
    // metrics that calibration moved to the per-layer list.
    let listed = report::benchmark_list(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let is_listed = |m: &&report::Metric| listed.iter().any(|(name, _)| name == m.name);
    let in_result: Vec<&report::Metric> = metrics.iter().filter(is_listed).collect();
    if let Some((missing, _)) = listed
        .iter()
        .find(|(name, _)| !metrics.iter().any(|m| m.name == name))
    {
        return Err(format!(
            "BENCHMARK.json lists {missing}, which this run does not measure"
        ));
    }
    if args.trace {
        report::print_metrics(in_result.iter().copied());
    } else {
        report::print_metrics(&metrics);
        let ungated: Vec<&str> = metrics
            .iter()
            .filter(|m| !is_listed(m))
            .map(|m| m.name)
            .collect();
        if !ungated.is_empty() {
            println!("  per-layer (no bound): {}", ungated.join(" "));
        }
    }
    for note in notes {
        println!("  {note}");
    }
    if let (Some(before), Some(after)) = (steal_before, machine::steal_ticks()) {
        let stolen_s = after.saturating_sub(before) as f64 / 100.0;
        println!(
            "  cpu steal {stolen_s:.2}s (all CPUs) in {:.1}s of run: what the hypervisor withheld from this VM",
            started.elapsed().as_secs_f64()
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        tally.attempted, tally.failed
    );
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &in_result)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::report::{benchmark_list, end_to_end, Metric};
    use crate::run::{run, RunConfig};
    use crate::spec::{Sizes, Workload};
    use crate::trace::run_traced;
    use std::collections::BTreeMap;

    /// Per-layer metrics that are counts of what the program did: for one
    /// seed they must repeat exactly.
    const EXACT: [&str; 14] = [
        "server.bytes_out_per_fetch",
        "server.bytes_in_per_edit",
        "proto.patch_bytes_per_cell",
        "engine.cells_recomputed_per_edit",
        "engine.regions",
        "engine.resident_rom_bytes",
        "engine.resident_columnar_bytes",
        "engine.resident_other_bytes",
        "relstore.wal_bytes_per_edit",
        "relstore.wal_bytes_per_import_cell",
        "relstore.pages_written_per_checkpoint",
        "relstore.image_bytes",
        "formula.waves_per_edit",
        "hybrid.regions",
    ];

    fn smoke_config(w: Workload, tag: &str) -> RunConfig {
        let root = std::env::temp_dir().join(format!(
            "bench_e2e-test-{}-{tag}-{}",
            std::process::id(),
            w.name()
        ));
        RunConfig {
            workload: w,
            seed: 42,
            sizes: Sizes::smoke(w),
            data_root: root,
        }
    }

    /// `(name, unit)` of the metrics a run measured that `listed` names,
    /// in `listed`'s order; a listed name the run lacks fails the test.
    fn listed_of(metrics: &[Metric], listed: &[(String, String)]) -> Vec<(String, String)> {
        listed
            .iter()
            .map(|(name, _)| {
                let m = metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{name} is listed but not measured"));
                (m.name.to_string(), m.unit.to_string())
            })
            .collect()
    }

    #[test]
    fn smoke_every_workload_end_to_end() {
        let listed = benchmark_list("end_to_end");
        for w in Workload::ALL {
            let cfg = smoke_config(w, "e2e");
            let result = run(&cfg);
            std::fs::remove_dir_all(&cfg.data_root).ok();
            let mut r = result.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(r.tally.failed, 0, "{}", w.name());
            assert!(
                r.tally.attempted as usize >= r.tape_counts.0,
                "{}",
                w.name()
            );
            let metrics = end_to_end(&r.rounds, &mut r.times, r.tape_counts, r.rss_peak_mb);
            // Each of the issue's 15 is on exactly one of the two lists.
            let per_layer = benchmark_list("per_layer");
            assert_eq!(metrics.len(), 15);
            for m in &metrics {
                let on = |list: &[(String, String)]| list.iter().any(|(n, _)| n == m.name);
                assert!(on(&listed) != on(&per_layer), "{} is on one list", m.name);
            }
            assert_eq!(
                listed_of(&metrics, &listed),
                listed,
                "BENCHMARK.json end_to_end"
            );
            for m in &metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn smoke_traced_twice_repeats_every_exact_count() {
        let listed = benchmark_list("per_layer");
        for w in Workload::ALL {
            let traced = |tag: &str| -> BTreeMap<String, f64> {
                let cfg = smoke_config(w, tag);
                std::fs::create_dir_all(&cfg.data_root).expect("test dir");
                let result = run_traced(&cfg, &cfg.data_root.join("trace.json"));
                let spans = std::fs::read_to_string(cfg.data_root.join("trace.json"));
                std::fs::remove_dir_all(&cfg.data_root).ok();
                let result = result.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(
                    spans.is_ok_and(|s| s.contains("\"depth\": 2")),
                    "trace.json has depth-2 spans"
                );
                assert_eq!(result.tally.failed, 0, "{}", w.name());
                assert_eq!(
                    listed_of(&result.metrics, &listed),
                    listed,
                    "BENCHMARK.json per_layer"
                );
                result
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.value))
                    .collect()
            };
            let (a, b) = (traced("t1"), traced("t2"));
            for name in EXACT {
                assert_eq!(a[name], b[name], "{} {name}", w.name());
            }
        }
    }
}
