//! `selest-perfbench`: one command for the end-to-end and per-layer
//! performance of selest's serving engine, ingest path and recovery.
//!
//! ```text
//! selest-perfbench --workload <serve-kernel|serve-cheap|ingest-recover>
//!                  --seed <n> --seconds <s> --trace <0|1> --store <dir> [--smoke]
//! ```
//!
//! Prints the operation tallies, then, as its last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any correctness check failed. See
//! README.md for the workloads, the checks and the metric definitions.

mod clock;
mod oracle;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Options;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut store = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::plan(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--store" => store = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let plan = workload.ok_or("--workload is required")?;
    Ok(Options {
        plan: if smoke { workload::smoke(plan) } else { plan },
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        store: store.ok_or("--store is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: selest-perfbench --workload <serve-kernel|serve-cheap|ingest-recover> \
                 --seed <n> --seconds <s> --trace <0|1> --store <dir> [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = workload::run(&opts);
    eprintln!(
        "{} seed {}: {} rounds{}",
        opts.plan.name,
        opts.seed,
        outcome.rounds,
        if opts.trace {
            " (alternating plain/traced)"
        } else {
            ""
        }
    );
    for (kind, mre, ceiling) in &outcome.mre_by_kind {
        match ceiling {
            Some(c) => eprintln!("mre {kind}: {mre:.4} (ceiling {c:.4})"),
            None => eprintln!("mre {kind}: {mre:.4} (no ceiling: ignores the data)"),
        }
    }
    for (kind, engine, direct) in &outcome.batch_by_kind {
        eprintln!(
            "batch {kind}: engine {engine:.1} us, direct {direct:.1} us, serving layer {:.1} us",
            engine - direct
        );
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", outcome.ops.line());
    let (table, values): (&[(&str, &str)], _) = if opts.trace {
        (&stats::PER_LAYER, &outcome.per_layer)
    } else {
        (&stats::END_TO_END, &outcome.end_to_end)
    };
    match stats::result_line(outcome.correct, &outcome.ops, table, values) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
