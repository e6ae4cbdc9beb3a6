//! Regenerates the paper's tables and figures, plus the thickness
//! product experiment.
//!
//! ```text
//! reproduce [all | TARGET...] [--quick]
//! ```
//!
//! `TARGETS` is the one list of targets. Every argument is checked
//! against it before anything runs: an unknown target or flag prints
//! the list and exits 2. No target, or `all`, runs every one.
//!
//! Run with `--release`; the training experiments are compute-bound.
//! `--quick` switches to the reduced workloads the tests use.

use seaice_bench::common::Scale;
use seaice_bench::{figures, tables, thickness, ExperimentOutput};

type Runner = fn(Scale) -> ExperimentOutput;

/// Every target, in the order `all` runs them.
const TARGETS: &[(&str, Runner)] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("fig2", figures::fig2),
    ("fig4", figures::fig4),
    ("fig6", figures::fig6),
    ("fig8", figures::fig8),
    ("fig10", figures::fig10),
    ("ablation", figures::resolution_ablation),
    ("thickness", thickness::thickness),
];

/// Prints `problem` and the valid arguments, then exits 2.
fn usage_error(problem: &str) -> ! {
    let ids: Vec<&str> = TARGETS.iter().map(|&(id, _)| id).collect();
    eprintln!("{problem}. Options: all {} [--quick]", ids.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut targets: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with("--") {
            usage_error(&format!("unknown flag '{arg}'"));
        } else if arg == "all" || TARGETS.iter().any(|&(id, _)| id == arg) {
            targets.push(arg);
        } else {
            usage_error(&format!("unknown experiment '{arg}'"));
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let everything = targets.is_empty() || targets.iter().any(|t| t == "all");

    for &(id, runner) in TARGETS {
        if !everything && !targets.iter().any(|t| t == id) {
            continue;
        }
        let start = std::time::Instant::now();
        let out = runner(scale);
        println!("{}", "=".repeat(78));
        println!("{}", out.report);
        println!(
            "[{}] done in {:.1}s — metrics: {}",
            out.id,
            start.elapsed().as_secs_f64(),
            out.metrics
                .iter()
                .map(|(k, v)| format!("{k}={v:.4}"))
                .collect::<Vec<_>>()
                .join("  ")
        );
    }
}
