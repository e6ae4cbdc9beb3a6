//! `reproduce` argument handling: every argument is checked before any
//! experiment runs, and a bad one exits 2 naming itself.

use std::process::Command;

/// The targets `reproduce all` runs, in order.
const TARGETS: &str =
    "all table1 table2 table3 table4 table5 fig2 fig4 fig6 fig8 fig10 ablation thickness";

#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    let cases: &[(&[&str], &str)] = &[
        (&["bogus"], "bogus"),
        (&["table4", "tabel5", "--quick"], "tabel5"),
        (&["--bogus"], "--bogus"),
        // The system demos are gone; their acceptance suites live in
        // crates/catalog/tests.
        (&["catalog"], "catalog"),
        (&["compact"], "compact"),
        (&["serve"], "serve"),
        (&["chaos"], "chaos"),
        (&["observe"], "observe"),
    ];
    for &(args, culprit) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("spawn reproduce");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stdout.contains("done in"), "{args:?} ran: {stdout}");
        assert!(
            stderr.contains(&format!("'{culprit}'")),
            "{args:?} must name {culprit}: {stderr}"
        );
        let options = stderr.split("Options: ").nth(1).unwrap_or_default();
        assert_eq!(
            options.trim_end(),
            format!("{TARGETS} [--quick]"),
            "{args:?}: the option list is the runner table"
        );
    }
}
