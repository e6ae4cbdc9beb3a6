//! Regenerates the paper's tables and figures and runs the system demos.
//!
//! ```text
//! reproduce [all|table1..table5|fig2|fig4|fig6|fig8|fig10|ablation|catalog|compact|serve|chaos|observe|thickness] \
//!           [--quick]
//! ```
//!
//! Run with `--release`; the training experiments are compute-bound.
//! `--quick` switches to the reduced workloads the tests use.

use seaice_bench::common::Scale;
use seaice_bench::{
    catalog, chaos, compact, figures, observe, serve, tables, thickness, ExperimentOutput,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut targets: Vec<&str> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            other if !other.starts_with("--") => targets.push(other),
            unknown => {
                eprintln!("unknown flag '{unknown}'");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let want = |id: &str| targets.is_empty() || targets.contains(&"all") || targets.contains(&id);

    let mut ran = 0usize;
    type Runner = fn(Scale) -> ExperimentOutput;
    let runners: Vec<(&str, Runner)> = vec![
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
        ("catalog", catalog::catalog),
        ("compact", compact::compact),
        ("serve", serve::serve),
        ("chaos", chaos::chaos),
        ("observe", observe::observe),
        ("thickness", thickness::thickness),
    ];
    for (id, runner) in runners {
        if !want(id) {
            continue;
        }
        ran += 1;
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
    if ran == 0 {
        eprintln!(
            "unknown experiment '{}'. Options: all table1..table5 fig2 fig4 fig6 fig8 fig10 ablation catalog compact serve chaos observe thickness",
            targets.join(" ")
        );
        std::process::exit(2);
    }
}
