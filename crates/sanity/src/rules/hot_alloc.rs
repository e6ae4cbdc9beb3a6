//! Rule `hot_alloc`: the PR-2 allocation-free contract. Kernels whose
//! names end in `_into`, `_ws`, or `_inplace` (in `crates/nn`,
//! `crates/core` and `crates/catalog`) exist precisely so the
//! steady-state path never allocates; a `vec![...]` or `.collect()`
//! slipped into one of them silently un-does the 3–29× wins recorded
//! in DESIGN.md (or, in the catalog, the per-sample boundary scan of a
//! summary query) while every oracle test keeps passing.

use crate::report::Finding;
use crate::scan::SourceFile;

pub const RULE: &str = "hot_alloc";

const CRATES: [&str; 3] = ["crates/nn/src/", "crates/core/src/", "crates/catalog/src/"];
const SUFFIXES: [&str; 3] = ["_into", "_ws", "_inplace"];

/// Allocating method calls (must be `.name(` calls).
const ALLOC_METHODS: [&str; 5] = ["collect", "to_vec", "clone", "to_string", "to_owned"];
/// Allocating constructors (must be `Path::name(` calls).
const ALLOC_CTORS: [(&str, &str); 4] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
];
/// Allocating macros (`name!(...)`).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !CRATES.iter().any(|c| f.rel.contains(c)) {
            continue;
        }
        for func in &f.functions {
            if func.is_test || !SUFFIXES.iter().any(|s| func.name.ends_with(s)) {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.lexed.tokens;
            for i in open..=close.min(toks.len().saturating_sub(1)) {
                let Some(name) = toks[i].ident() else {
                    continue;
                };
                let line = toks[i].line;
                let flag = |what: &str, out: &mut Vec<Finding>| {
                    out.push(Finding::new(
                        f.rel.clone(),
                        line,
                        RULE,
                        format!(
                            "{what} inside allocation-free kernel `{}` (the `{}` contract)",
                            func.name,
                            SUFFIXES
                                .iter()
                                .find(|s| func.name.ends_with(*s))
                                .copied()
                                .unwrap_or("_into"),
                        ),
                        f.line_text(line),
                    ));
                };
                if ALLOC_METHODS.contains(&name) && super::method_call_arity(toks, i).is_some() {
                    flag(&format!("`.{name}()`"), &mut out);
                } else if ALLOC_MACROS.contains(&name)
                    && matches!(toks.get(i + 1), Some(t) if t.is_punct('!'))
                {
                    flag(&format!("`{name}!`"), &mut out);
                } else if let Some((ty, ctor)) = ALLOC_CTORS.iter().find(|(_, c)| *c == name) {
                    // `Vec::new(` — ident `Vec` `:` `:` ident `(`.
                    let is_path = i >= 3
                        && toks[i - 1].is_punct(':')
                        && toks[i - 2].is_punct(':')
                        && toks[i - 3].is_ident(ty);
                    if is_path && super::is_call(toks, i) {
                        flag(&format!("`{ty}::{ctor}()`"), &mut out);
                    }
                }
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
        run_in("crates/nn/src/tensor.rs", src)
    }

    fn run_in(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::scan(PathBuf::from("/w").join(rel), rel.into(), src.into());
        check(&[f])
    }

    #[test]
    fn flags_allocations_in_kernels() {
        let fs = run(
            "fn matmul_into(out: &mut [f32]) { let t = vec![0.0; 4]; let v: Vec<f32> = xs.iter().collect(); let w = Vec::new(); }",
        );
        assert_eq!(fs.len(), 3);
        assert!(fs.iter().all(|f| f.rule == RULE));
    }

    #[test]
    fn catalog_kernels_are_in_scope_other_crates_are_not() {
        let src = "fn scan_into(&self, out: &mut LayerPartial) { let v = samples.to_vec(); }";
        assert_eq!(run_in("crates/catalog/src/store.rs", src).len(), 1);
        assert!(run_in("crates/bench/src/serve.rs", src).is_empty());
    }

    #[test]
    fn non_kernel_functions_may_allocate() {
        let fs = run("fn params(&self) -> Vec<f32> { self.w.to_vec() }");
        assert!(fs.is_empty());
    }

    #[test]
    fn ws_and_inplace_suffixes_are_kernels() {
        let fs =
            run("fn forward_ws(&self) { x.clone(); }\nfn map_inplace(&mut self) { y.to_vec(); }");
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn with_capacity_in_vec_path_only() {
        // `Workspace::with_capacity` is a constructor for the arena
        // itself, not a hot-path allocation.
        let fs = run("fn init_into(&mut self) { let w = Workspace::with_capacity(4); }");
        assert!(fs.is_empty());
    }
}
