//! Rule `lock_order`: deadlock-cycle detection over the catalog's
//! lock-acquisition graph, plus a hold-across-blocking-call check in
//! the async server and the `rayon` shim's worker pool.
//!
//! Scope: `crates/catalog/src/{cache,store,server,lease,fault}.rs`, the
//! `parking_lot` shim and the `rayon` shim. Within each function the
//! rule simulates guard lifetimes:
//!
//! - an acquisition is a `.lock()` / `.read()` / `.write()` call with
//!   *empty* parens (this cleanly separates `RwLock::read()` from
//!   `io::Read::read(buf)`),
//! - a `let`-bound guard lives to the end of its enclosing block or an
//!   explicit `drop(name)`; an inline guard (`x.lock().push(..)`) lives
//!   to the end of the statement,
//! - acquiring B while holding A records the edge A → B; calling a
//!   scoped function that (transitively) acquires B records the same
//!   edge.
//!
//! A cycle in the resulting graph is a lock-order inversion: two
//! threads taking the same pair in opposite orders can deadlock. The
//! blocking-call check flags guards held across calls that can park the
//! thread: in server.rs (the epoll loop and worker pool) calls that
//! wait on I/O or a channel, in the `rayon` shim calls that run pool
//! jobs — a job may take arbitrarily long and make nested parallel
//! calls, so a worker must never run one while it holds the queue lock.
//! `Condvar::wait*` is exempt because it releases the guard while
//! parked.

use crate::lexer::Tok;
use crate::report::Finding;
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const RULE: &str = "lock_order";

const TARGETS: [&str; 7] = [
    "crates/catalog/src/cache.rs",
    "crates/catalog/src/store.rs",
    "crates/catalog/src/server.rs",
    "crates/catalog/src/lease.rs",
    "crates/catalog/src/fault.rs",
    "crates/shims/parking_lot/src/lib.rs",
    "crates/shims/rayon/src/lib.rs",
];

const SERVER: &str = "crates/catalog/src/server.rs";
const POOL: &str = "crates/shims/rayon/src/lib.rs";

const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Calls that can park the thread while a guard is held (server.rs
/// check). `read`/`write` with arguments are *not* listed: on the
/// epoll path they are nonblocking by construction.
const BLOCKING_CALLS: [&str; 8] = [
    "read_exact",
    "write_all",
    "read_to_end",
    "accept",
    "connect",
    "sleep",
    "recv",
    "recv_timeout",
];

/// Calls that run pool jobs (rayon shim check).
const JOB_CALLS: [&str; 1] = ["run_claimed"];

/// The calls no guard may be held across in `rel`, if it has any.
fn parking_calls(rel: &str) -> &'static [&'static str] {
    if rel.ends_with(SERVER) {
        &BLOCKING_CALLS
    } else if rel.ends_with(POOL) {
        &JOB_CALLS
    } else {
        &[]
    }
}

/// One live guard during simulation.
struct Guard {
    /// Qualified lock node, e.g. `server.queue`.
    node: String,
    /// Binding name when `let`-bound (for `drop(name)`).
    name: Option<String>,
    /// `Some(depth)`: dies when the brace block at `depth` closes.
    /// `None`: statement-scoped, dies at the next `;` at `stmt_depth`.
    block_depth: Option<i64>,
    stmt_depth: i64,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: String,
    to: String,
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let scoped: Vec<(usize, &SourceFile)> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| TARGETS.iter().any(|t| f.rel.ends_with(t)))
        .collect();

    // Pass 1: per-function direct acquisitions, then a fixpoint for
    // transitive lock summaries through scoped calls.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut fn_calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for &(_, f) in &scoped {
        for func in &f.functions {
            if func.is_test {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.lexed.tokens;
            let d = direct.entry(func.name.clone()).or_default();
            let c = fn_calls.entry(func.name.clone()).or_default();
            for i in open..=close.min(toks.len().saturating_sub(1)) {
                if let Some(name) = toks[i].ident() {
                    if ACQUIRE_METHODS.contains(&name)
                        && super::method_call_arity(toks, i) == Some(true)
                    {
                        if let Some(node) = lock_node(f, toks, i) {
                            d.insert(node);
                        }
                    } else if super::is_call(toks, i)
                        && !super::denylisted(name)
                        && name != func.name
                    {
                        c.insert(name.to_string());
                    }
                }
            }
        }
    }
    let mut summary: BTreeMap<String, BTreeSet<String>> = direct.clone();
    loop {
        let mut changed = false;
        let names: Vec<String> = summary.keys().cloned().collect();
        for name in names {
            let callees = fn_calls.get(&name).cloned().unwrap_or_default();
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in callees {
                if let Some(locks) = summary.get(&callee) {
                    add.extend(locks.iter().cloned());
                }
            }
            if let Some(s) = summary.get_mut(&name) {
                let before = s.len();
                s.extend(add);
                changed |= s.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: simulate guard lifetimes, record edges and blocking
    // calls under lock.
    let mut edges: BTreeMap<Edge, (String, u32, String)> = BTreeMap::new();
    let mut out = Vec::new();
    for &(_, f) in &scoped {
        let parking = parking_calls(&f.rel);
        for func in &f.functions {
            if func.is_test {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.lexed.tokens;
            let mut guards: Vec<Guard> = Vec::new();
            let mut depth: i64 = 0;
            let mut i = open;
            while i <= close && i < toks.len() {
                let line = toks[i].line;
                match &toks[i].kind {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        // Block guards bound at this depth die, and so
                        // do statement guards from a brace-less tail
                        // expression.
                        guards.retain(|g| {
                            g.block_depth != Some(depth)
                                && !(g.block_depth.is_none() && g.stmt_depth >= depth)
                        });
                        depth -= 1;
                    }
                    // `,` ends a match-arm/tuple expression the same
                    // way `;` ends a statement.
                    Tok::Punct(';') | Tok::Punct(',') => {
                        guards.retain(|g| !(g.block_depth.is_none() && g.stmt_depth == depth));
                    }
                    Tok::Ident(name) if name == "drop" && super::is_call(toks, i) => {
                        if let Some(dropped) = toks.get(i + 2).and_then(|t| t.ident()) {
                            guards.retain(|g| g.name.as_deref() != Some(dropped));
                        }
                    }
                    Tok::Ident(name)
                        if ACQUIRE_METHODS.contains(&name.as_str())
                            && super::method_call_arity(toks, i) == Some(true) =>
                    {
                        if let Some(node) = lock_node(f, toks, i) {
                            for g in &guards {
                                if g.node != node {
                                    edges
                                        .entry(Edge {
                                            from: g.node.clone(),
                                            to: node.clone(),
                                        })
                                        .or_insert((
                                            f.rel.clone(),
                                            line,
                                            f.line_text(line).to_string(),
                                        ));
                                }
                            }
                            let binding = let_binding(toks, open, i);
                            guards.push(Guard {
                                node,
                                name: binding.clone(),
                                block_depth: binding.is_some().then_some(depth),
                                stmt_depth: depth,
                            });
                        }
                    }
                    Tok::Ident(name) if super::is_call(toks, i) && !guards.is_empty() => {
                        // Blocking call while locked.
                        if parking.contains(&name.as_str()) {
                            let held: Vec<&str> = guards.iter().map(|g| g.node.as_str()).collect();
                            out.push(Finding::new(
                                f.rel.clone(),
                                line,
                                RULE,
                                format!(
                                    "blocking call `{name}(..)` in `{}` while holding {}: parks a serving or pool thread under lock",
                                    func.name,
                                    held.join(", ")
                                ),
                                f.line_text(line),
                            ));
                        }
                        // Transitive edges through scoped calls.
                        if !super::denylisted(name) && name != &func.name {
                            if let Some(locks) = summary.get(name.as_str()) {
                                for g in &guards {
                                    for node in locks {
                                        if &g.node != node {
                                            edges
                                                .entry(Edge {
                                                    from: g.node.clone(),
                                                    to: node.clone(),
                                                })
                                                .or_insert((
                                                    f.rel.clone(),
                                                    line,
                                                    f.line_text(line).to_string(),
                                                ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }

    // Pass 3: cycle detection over the edge set.
    out.extend(report_cycles(&edges));
    out
}

/// Qualified node for an acquisition: `<file_stem>.<receiver>`.
fn lock_node(f: &SourceFile, toks: &[crate::lexer::Token], method_idx: usize) -> Option<String> {
    let recv = super::receiver_name(toks, method_idx)?;
    let stem = f
        .rel
        .rsplit('/')
        .nth(if f.rel.ends_with("lib.rs") { 2 } else { 0 })
        .unwrap_or("?")
        .trim_end_matches(".rs");
    Some(format!("{stem}.{recv}"))
}

/// When the statement containing the acquisition at `idx` starts with
/// `let [mut] name =`, returns the binding name. Searches back to the
/// nearest statement boundary.
fn let_binding(toks: &[crate::lexer::Token], body_open: usize, idx: usize) -> Option<String> {
    let mut j = idx;
    while j > body_open {
        j -= 1;
        match &toks[j].kind {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => {
                j += 1;
                break;
            }
            _ => {}
        }
    }
    if !toks.get(j)?.is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if matches!(toks.get(k), Some(t) if t.is_ident("mut")) {
        k += 1;
    }
    let name = toks.get(k)?.ident()?.to_string();
    matches!(toks.get(k + 1), Some(t) if t.is_punct('=') || t.is_punct(':')).then_some(name)
}

/// Finds elementary cycles (by DFS from every node) and reports each
/// distinct cycle once, canonicalized by its smallest rotation.
fn report_cycles(edges: &BTreeMap<Edge, (String, u32, String)>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges.keys() {
        adj.entry(e.from.as_str()).or_default().push(e.to.as_str());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<&str> = Vec::new();
        // Iterative DFS bounded by path length; the graph is tiny.
        fn dfs<'a>(
            node: &'a str,
            start: &'a str,
            adj: &BTreeMap<&'a str, Vec<&'a str>>,
            path: &mut Vec<&'a str>,
            found: &mut Vec<Vec<String>>,
        ) {
            if path.len() > 8 {
                return;
            }
            path.push(node);
            for &next in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                if next == start {
                    found.push(path.iter().map(|s| s.to_string()).collect());
                } else if !path.contains(&next) {
                    dfs(next, start, adj, path, found);
                }
            }
            path.pop();
        }
        let mut found = Vec::new();
        dfs(start, start, &adj, &mut path, &mut found);
        for cycle in found {
            // Canonical rotation: start at the lexicographically
            // smallest node.
            let min_pos = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut canon = cycle.clone();
            canon.rotate_left(min_pos);
            if !seen_cycles.insert(canon.clone()) {
                continue;
            }
            // Anchor the finding at the first edge of the canonical
            // cycle.
            let first = Edge {
                from: canon[0].clone(),
                to: canon.get(1).unwrap_or(&canon[0]).clone(),
            };
            let (file, line, excerpt) = edges
                .get(&first)
                .cloned()
                .unwrap_or_else(|| ("<graph>".into(), 0, String::new()));
            out.push(Finding::new(
                file,
                line,
                RULE,
                format!(
                    "lock-order cycle: {} -> {} — two threads taking these in opposite orders can deadlock",
                    canon.join(" -> "),
                    canon[0]
                ),
                excerpt,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan_as(rel: &str, src: &str) -> SourceFile {
        SourceFile::scan(PathBuf::from(format!("/w/{rel}")), rel.into(), src.into())
    }

    #[test]
    fn detects_inversion_cycle() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn a(&self) { let g = self.queue.lock(); let h = self.dirty.lock(); }\nfn b(&self) { let g = self.dirty.lock(); let h = self.queue.lock(); }",
        );
        let fs = check(&[f]);
        assert!(
            fs.iter().any(|x| x.message.contains("lock-order cycle")),
            "{fs:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn a(&self) { let g = self.queue.lock(); let h = self.dirty.lock(); }\nfn b(&self) { let g = self.queue.lock(); let h = self.dirty.lock(); }",
        );
        let fs = check(&[f]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn statement_guard_dies_at_semicolon() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn a(&self) { self.queue.lock().push(1); self.dirty.lock().push(2); }\nfn b(&self) { self.dirty.lock().push(1); self.queue.lock().push(2); }",
        );
        let fs = check(&[f]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn drop_releases_guard() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn a(&self) { let g = self.queue.lock(); drop(g); let h = self.dirty.lock(); }\nfn b(&self) { let g = self.dirty.lock(); drop(g); let h = self.queue.lock(); }",
        );
        let fs = check(&[f]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn blocking_call_under_lock_in_server() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn pump(&self) { let g = self.out.lock(); stream.write_all(&buf); }",
        );
        let fs = check(&[f]);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("write_all"));
    }

    #[test]
    fn blocking_call_after_guard_drop_is_clean() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn pump(&self) { { let g = self.out.lock(); g.pop(); } stream.write_all(&buf); }",
        );
        let fs = check(&[f]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn pool_job_under_queue_lock() {
        let held = scan_as(
            "crates/shims/rayon/src/lib.rs",
            "fn work(pool: &Pool) { let q = pool.queue.lock(); let c = q.pop(); c.run_claimed(); }",
        );
        let fs = check(&[held]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("run_claimed"));
        let popped = scan_as(
            "crates/shims/rayon/src/lib.rs",
            "fn work(pool: &Pool) { let c = { let q = pool.queue.lock(); q.pop() }; c.run_claimed(); }",
        );
        assert!(check(&[popped]).is_empty());
        // Outside the pool the name means nothing.
        let elsewhere = scan_as(
            "crates/catalog/src/store.rs",
            "fn work(&self) { let q = self.queue.lock(); q.run_claimed(); }",
        );
        assert!(check(&[elsewhere]).is_empty());
    }

    #[test]
    fn transitive_edge_through_helper() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn helper_locks(&self) { let g = self.dirty.lock(); g.touch(); }\nfn a(&self) { let g = self.queue.lock(); self.helper_locks(); }\nfn b(&self) { let g = self.dirty.lock(); let h = self.queue.lock(); }",
        );
        let fs = check(&[f]);
        assert!(
            fs.iter().any(|x| x.message.contains("lock-order cycle")),
            "{fs:?}"
        );
    }

    #[test]
    fn read_with_args_is_not_an_acquisition() {
        let f = scan_as(
            "crates/catalog/src/server.rs",
            "fn pump(&self) { let g = self.out.lock(); let n = stream.read(&mut buf); }",
        );
        let fs = check(&[f]);
        // `read(&mut buf)` is neither an acquisition nor a listed
        // blocking call (epoll streams are nonblocking).
        assert!(fs.is_empty(), "{fs:?}");
    }
}
