//! Rule `unsafe_audit`: every `unsafe` block must carry an adjacent
//! `// SAFETY:` comment stating why the invariants hold.
//!
//! Applies workspace-wide. The only unsafe in the tree should be the
//! FFI in the mio shim and the `rayon` shim pool's lifetime erasure of
//! a caller's closure. "Adjacent" means a comment containing
//! `SAFETY:` on the same line as the `unsafe` keyword or within the
//! three lines above it — enough room for a multi-line justification
//! without allowing a stale comment at the top of the function to
//! cover every block in it.

use crate::report::Finding;
use crate::scan::SourceFile;
use std::collections::BTreeSet;

pub const RULE: &str = "unsafe_audit";

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        // Every line (of a line or block comment) that contains a
        // SAFETY: marker.
        let mut safety_lines: BTreeSet<u32> = BTreeSet::new();
        for c in &f.lexed.comments {
            for (off, text) in c.text.lines().enumerate() {
                if text.contains("SAFETY:") {
                    safety_lines.insert(c.line + off as u32);
                }
            }
        }
        let toks = &f.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("unsafe") {
                continue;
            }
            // Only blocks: `unsafe {`. `unsafe fn`/`unsafe impl` are
            // covered at their call sites / method bodies.
            if !matches!(toks.get(i + 1), Some(n) if n.is_punct('{')) {
                continue;
            }
            let line = t.line;
            let covered = (line.saturating_sub(3)..=line).any(|l| safety_lines.contains(&l));
            if !covered {
                out.push(Finding::new(
                    f.rel.clone(),
                    line,
                    RULE,
                    "`unsafe` block without an adjacent `// SAFETY:` comment",
                    f.line_text(line),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(PathBuf::from("/w/a.rs"), "a.rs".into(), src.into());
        check(&[f])
    }

    #[test]
    fn flags_uncommented_unsafe_block() {
        let fs = run("fn f() { let x = unsafe { libc() }; }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RULE);
    }

    #[test]
    fn safety_comment_above_or_inline_covers() {
        let fs = run(
            "fn f() {\n    // SAFETY: fd is open\n    let x = unsafe { close(fd) };\n    let y = unsafe { dup(fd) }; // SAFETY: same fd\n}",
        );
        assert!(fs.is_empty());
    }

    #[test]
    fn distant_comment_does_not_cover() {
        let fs = run(
            "// SAFETY: too far away\nfn f() {\n    let a = 1;\n    let b = 2;\n    let x = unsafe { go() };\n}",
        );
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn unsafe_fn_item_is_not_a_block() {
        let fs = run("unsafe fn raw() { }");
        assert!(fs.is_empty());
    }
}
