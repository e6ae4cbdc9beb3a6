//! Rule `protocol_drift`: `wire.rs` (and the lease record in
//! `lease.rs`) must agree with the normative tables in
//! `docs/PROTOCOL.md`.
//!
//! PROTOCOL.md is what a third-party client implements against; the
//! Rust codec is what the server actually speaks. Every version bump
//! so far (v1 → v2 thickness, v2 → v3 multiplexing) touched both, and
//! a missed edit produces the worst kind of bug: peers that interop in
//! this repo's tests but not with the document. Checked:
//!
//! - kind maps: the request-kind table (`Request::tag` arms) or the
//!   response encode arms, the decode arms, and the §3.2 / §3.3 tables
//!   — all three must agree,
//! - error code constants vs the §3.6 table (matched by keyword),
//! - `FRAME_HEADER_BYTES` vs the §2 frame table's payload offset,
//! - `MAX_FRAME_BYTES` / `BATCH_RECORDS` / `MAX_BATCH_BYTES` vs the
//!   prose limits,
//! - artifact tag + version consts vs the doc's `Version:` line,
//! - version mentions in wire.rs doc comments (`` `SIRQ` v2 ``) vs the
//!   `VERSION` consts — stale rustdoc is drift too.

use crate::lexer::Tok;
use crate::report::Finding;
use crate::scan::{match_delim, SourceFile};
use std::collections::BTreeMap;

pub const RULE: &str = "protocol_drift";

#[derive(Debug, Clone, PartialEq, Eq)]
enum ConstVal {
    Num(u64),
    Tag(String),
}

pub fn check(files: &[SourceFile], protocol_md: Option<&str>) -> Vec<Finding> {
    let mut out = Vec::new();
    let wire = files
        .iter()
        .find(|f| f.rel.ends_with("catalog/src/wire.rs"));
    let lease = files
        .iter()
        .find(|f| f.rel.ends_with("catalog/src/lease.rs"));
    let Some(wire) = wire else {
        return out;
    };

    let consts = parse_consts(wire);
    let tag_versions = pair_tag_versions(&consts);

    // Stale rustdoc: every "`SIRQ` vN" / "`SIRS` vN" mention in wire.rs
    // comments must match that tag's VERSION const.
    for c in &wire.lexed.comments {
        for (off, text) in c.text.lines().enumerate() {
            for (tag, v) in &tag_versions {
                let needle = format!("`{tag}` v");
                let mut rest: &str = text;
                while let Some(pos) = rest.find(&needle) {
                    let after = &rest[pos + needle.len()..];
                    let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
                    if let Ok(mentioned) = digits.parse::<u64>() {
                        if mentioned != *v {
                            let line = c.line + off as u32;
                            out.push(Finding::new(
                                wire.rel.clone(),
                                line,
                                RULE,
                                format!(
                                    "comment says `{tag}` v{mentioned} but the `{tag}` VERSION const is {v}: stale rustdoc"
                                ),
                                wire.line_text(line),
                            ));
                        }
                    }
                    rest = &rest[pos + needle.len()..];
                }
            }
        }
    }

    let Some(doc) = protocol_md else {
        return out;
    };

    let finding = |name: &str, msg: String, out: &mut Vec<Finding>| {
        let line = consts
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, l, _)| *l)
            .unwrap_or(1);
        out.push(Finding::new(
            wire.rel.clone(),
            line,
            RULE,
            msg,
            wire.line_text(line),
        ));
    };
    let num_const = |name: &str| -> Option<u64> {
        consts.iter().find_map(|(n, _, v)| match v {
            ConstVal::Num(x) if n == name => Some(*x),
            _ => None,
        })
    };

    // §2: FRAME_HEADER_BYTES vs the frame table's payload offset (the
    // row whose size cell is `N`).
    if let Some(code) = num_const("FRAME_HEADER_BYTES") {
        match doc_payload_offset(doc) {
            Some(doc_off) if doc_off != code => finding(
                "FRAME_HEADER_BYTES",
                format!(
                    "FRAME_HEADER_BYTES is {code} but PROTOCOL.md §2 puts the payload at offset {doc_off}"
                ),
                &mut out,
            ),
            None => finding(
                "FRAME_HEADER_BYTES",
                "PROTOCOL.md §2 frame table has no payload-offset row to check FRAME_HEADER_BYTES against".into(),
                &mut out,
            ),
            _ => {}
        }
    }

    // Prose limits: the doc must state the exact byte count for
    // MAX_FRAME_BYTES and the exact record/byte batch limits.
    if let Some(code) = num_const("MAX_FRAME_BYTES") {
        if !doc_byte_counts(doc).contains(&code) {
            finding(
                "MAX_FRAME_BYTES",
                format!(
                    "MAX_FRAME_BYTES is {code} but PROTOCOL.md never states \"{} bytes\"",
                    group_digits(code)
                ),
                &mut out,
            );
        }
    }
    if let Some(code) = num_const("BATCH_RECORDS") {
        if !doc.contains(&format!("{code} records")) {
            finding(
                "BATCH_RECORDS",
                format!("BATCH_RECORDS is {code} but PROTOCOL.md never mentions a {code}-record batch limit"),
                &mut out,
            );
        }
    }
    if let Some(code) = num_const("MAX_BATCH_BYTES") {
        let mib = code / (1024 * 1024);
        if code % (1024 * 1024) != 0 || !doc.contains(&format!("{mib} MiB")) {
            finding(
                "MAX_BATCH_BYTES",
                format!("MAX_BATCH_BYTES is {code} but PROTOCOL.md never mentions a {mib} MiB batch budget"),
                &mut out,
            );
        }
    }

    // §3.6 error codes, matched by keyword in the meaning column.
    const ERR_KEYWORDS: [(&str, &str); 5] = [
        ("ERR_BAD_REQUEST", "malformed"),
        ("ERR_BAD_VERSION", "version"),
        ("ERR_CATALOG", "catalog"),
        ("ERR_READ_ONLY", "read-only"),
        ("ERR_DUP_REQUEST", "duplicate"),
    ];
    let err_rows = doc_error_rows(doc);
    for (name, keyword) in ERR_KEYWORDS {
        let Some(code) = num_const(name) else {
            continue;
        };
        match err_rows
            .iter()
            .find(|(_, meaning)| meaning.contains(keyword))
        {
            Some((doc_code, _)) if *doc_code != code => finding(
                name,
                format!(
                    "{name} is {code} but the PROTOCOL.md §3.6 \"{keyword}\" row says {doc_code}"
                ),
                &mut out,
            ),
            None => finding(
                name,
                format!("{name} has no matching row (keyword \"{keyword}\") in PROTOCOL.md §3.6"),
                &mut out,
            ),
            _ => {}
        }
    }

    // Kind maps: the tag side (Request's kind table, Response's encode
    // arms), the decode arms, and the doc tables must be the same
    // mapping.
    for (enum_name, side) in [("Request", "kind table"), ("Response", "encode arm")] {
        let (tags, decode) = parse_kind_maps(wire, enum_name);
        let doc_table = doc_kind_table(doc, enum_name);
        compare_kind_maps(wire, enum_name, side, &tags, &doc_table, &mut out);
        compare_kind_maps(wire, enum_name, "decode arm", &decode, &doc_table, &mut out);
    }

    // Version line: tags and versions in code vs the doc header.
    let mut all_tags = tag_versions.clone();
    if let Some(lease) = lease {
        all_tags.extend(pair_tag_versions(&parse_consts(lease)));
    }
    if let Some(version_line) = doc.lines().find(|l| l.trim_start().starts_with("Version:")) {
        for (tag, v) in &all_tags {
            match doc_version_for_tag(version_line, tag) {
                Some(doc_v) if doc_v != *v => finding(
                    "VERSION",
                    format!("`{tag}` VERSION is {v} but PROTOCOL.md's Version line says v{doc_v}"),
                    &mut out,
                ),
                None => finding(
                    "VERSION",
                    format!("tag `{tag}` does not appear in PROTOCOL.md's Version line"),
                    &mut out,
                ),
                _ => {}
            }
        }
    }

    out
}

/// Parses `const NAME: T = <expr>;` items, evaluating numeric exprs
/// made of literals, `<<`, `*`, and `+`, and `*b"TAG"` byte-string
/// tags.
fn parse_consts(f: &SourceFile) -> Vec<(String, u32, ConstVal)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("const") || f.in_test_code(i) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        // Skip to `=` at the item level (the type may contain `[u8; 4]`).
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
            if toks[j].is_punct('[') {
                j = match_delim(toks, j, '[', ']');
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        j += 1;
        // `*b"SIRQ"` tag shape.
        if matches!(toks.get(j), Some(t) if t.is_punct('*')) {
            if let Some(Tok::Lit(text)) = toks.get(j + 1).map(|t| &t.kind) {
                if let Some(tag) = byte_string_contents(text) {
                    out.push((name.to_string(), line, ConstVal::Tag(tag)));
                    i = j + 2;
                    continue;
                }
            }
        }
        // Numeric expr.
        if let Some(v) = eval_num_expr(toks, &mut j) {
            out.push((name.to_string(), line, ConstVal::Num(v)));
        }
        i = j;
    }
    out
}

/// Pairs each `TAG` const with the next `VERSION` const that follows
/// it in the same file.
fn pair_tag_versions(consts: &[(String, u32, ConstVal)]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut pending_tag: Option<String> = None;
    for (name, _, val) in consts {
        match (name.as_str(), val) {
            ("TAG", ConstVal::Tag(t)) => pending_tag = Some(t.clone()),
            ("VERSION", ConstVal::Num(v)) => {
                if let Some(tag) = pending_tag.take() {
                    out.push((tag, *v));
                }
            }
            _ => {}
        }
    }
    out
}

/// `b"SIRQ"` → `SIRQ`.
fn byte_string_contents(lit: &str) -> Option<String> {
    let inner = lit
        .strip_prefix('b')?
        .strip_prefix('"')?
        .strip_suffix('"')?;
    Some(inner.to_string())
}

/// Evaluates `N (<< | * | +) N ...` starting at `*j`; leaves `*j` just
/// past the last consumed token.
fn eval_num_expr(toks: &[crate::lexer::Token], j: &mut usize) -> Option<u64> {
    let mut val = parse_num(toks.get(*j)?.num()?)?;
    *j += 1;
    loop {
        if matches!(toks.get(*j), Some(t) if t.is_punct('<'))
            && matches!(toks.get(*j + 1), Some(t) if t.is_punct('<'))
        {
            let n = parse_num(toks.get(*j + 2)?.num()?)?;
            val = val.checked_shl(n as u32)?;
            *j += 3;
        } else if matches!(toks.get(*j), Some(t) if t.is_punct('*')) {
            let n = parse_num(toks.get(*j + 1)?.num()?)?;
            val = val.checked_mul(n)?;
            *j += 2;
        } else if matches!(toks.get(*j), Some(t) if t.is_punct('+')) {
            let n = parse_num(toks.get(*j + 1)?.num()?)?;
            val = val.checked_add(n)?;
            *j += 2;
        } else {
            return Some(val);
        }
    }
}

/// Parses a Rust numeric literal: underscores, `0x`/`0o`/`0b`
/// prefixes, and type suffixes (`28usize`, `0x1F_u32`).
fn parse_num(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (radix, digits) = if let Some(hex) = clean.strip_prefix("0x") {
        (16, hex)
    } else if let Some(oct) = clean.strip_prefix("0o") {
        (8, oct)
    } else if let Some(bin) = clean.strip_prefix("0b") {
        (2, bin)
    } else {
        (10, clean.as_str())
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// `4194304` → `4,194,304` (the doc's grouped style).
fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// All `N,NNN,NNN bytes`-style counts in the doc (commas optional).
fn doc_byte_counts(doc: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let chunks: Vec<&str> = doc.split("bytes").collect();
    // The text after the final "bytes" is not followed by the word.
    for chunk in chunks.iter().take(chunks.len().saturating_sub(1)) {
        let tail: String = chunk
            .chars()
            .rev()
            .skip_while(|c| c.is_whitespace() || *c == '(')
            .take_while(|c| c.is_ascii_digit() || *c == ',')
            .collect();
        let digits: String = tail.chars().rev().filter(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() {
            if let Ok(n) = digits.parse() {
                out.push(n);
            }
        }
    }
    out
}

/// Markdown table cells of a `| a | b | c |` row.
fn row_cells(line: &str) -> Option<Vec<&str>> {
    let t = line.trim();
    if !t.starts_with('|') || !t.ends_with('|') {
        return None;
    }
    Some(t[1..t.len() - 1].split('|').map(str::trim).collect())
}

/// §2 frame table: the offset in the row whose size cell is `N`.
fn doc_payload_offset(doc: &str) -> Option<u64> {
    for line in doc.lines() {
        if let Some(cells) = row_cells(line) {
            if cells.len() >= 3 && cells[1] == "N" && cells[2].starts_with("payload") {
                return cells[0].parse().ok();
            }
        }
    }
    None
}

/// §3.6: `| code | meaning |` rows.
fn doc_error_rows(doc: &str) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for line in doc.lines() {
        match row_cells(line) {
            Some(cells) if cells.len() == 2 => {
                if cells[0] == "code" {
                    in_table = true;
                    continue;
                }
                if in_table {
                    if let Ok(code) = cells[0].parse() {
                        out.push((code, cells[1].to_string()));
                    }
                }
            }
            _ => in_table = false,
        }
    }
    out
}

/// §3.2 / §3.3: kind → name from the table whose header starts
/// `| kind | name | fields |` — the 3-column header is the request
/// table, the 4-column (`... | answers |`) one is the response table.
fn doc_kind_table(doc: &str, enum_name: &str) -> BTreeMap<u64, String> {
    let want_cols = if enum_name == "Request" { 3 } else { 4 };
    let mut out = BTreeMap::new();
    let mut in_table = false;
    for line in doc.lines() {
        match row_cells(line) {
            Some(cells) => {
                if cells.first() == Some(&"kind") && cells.get(1) == Some(&"name") {
                    in_table = cells.len() == want_cols;
                    continue;
                }
                if in_table && cells.len() == want_cols {
                    if let Ok(kind) = cells[0].parse() {
                        out.insert(kind, cells[1].to_string());
                    }
                }
            }
            None => in_table = false,
        }
    }
    out
}

/// In the doc's `Version:` line, the `vN` that follows `` `TAG` ``.
fn doc_version_for_tag(version_line: &str, tag: &str) -> Option<u64> {
    let pos = version_line.find(&format!("`{tag}`"))?;
    let rest = &version_line[pos..];
    let vpos = rest.find('v')?;
    let digits: String = rest[vpos + 1..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts (kind → variant) maps from the codec: tag arms — a kind
/// table's `Enum::Name .. => N` or an encode arm's
/// `Enum::Name .. => [{] w.put_u8(N)` — and decode arms
/// (`N => Enum::Name`).
fn parse_kind_maps(
    f: &SourceFile,
    enum_name: &str,
) -> (BTreeMap<u64, String>, BTreeMap<u64, String>) {
    let toks = &f.lexed.tokens;
    let mut encode = BTreeMap::new();
    let mut decode = BTreeMap::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident(enum_name)
            || f.in_test_code(i)
            || !matches!(toks.get(i + 1), Some(t) if t.is_punct(':'))
            || !matches!(toks.get(i + 2), Some(t) if t.is_punct(':'))
        {
            continue;
        }
        let Some(variant) = toks.get(i + 3).and_then(|t| t.ident()) else {
            continue;
        };
        if !variant.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        // Decode arm: `N => Enum::Name`.
        if i >= 3 && toks[i - 1].is_punct('>') && toks[i - 2].is_punct('=') {
            if let Some(kind) = toks[i - 3].num().and_then(parse_num) {
                decode.insert(kind, variant.to_string());
                continue;
            }
        }
        // Encode arm: skip an optional `{..}`/`(..)` pattern, then
        // `=>`, optional `{`, then the first call must be `put_u8(N)`.
        let mut j = i + 4;
        if let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                j = match_delim(toks, j, '{', '}') + 1;
            } else if t.is_punct('(') {
                j = match_delim(toks, j, '(', ')') + 1;
            }
        }
        if !(matches!(toks.get(j), Some(t) if t.is_punct('='))
            && matches!(toks.get(j + 1), Some(t) if t.is_punct('>')))
        {
            continue;
        }
        j += 2;
        if matches!(toks.get(j), Some(t) if t.is_punct('{')) {
            j += 1;
        }
        // Kind-table arm: `=> N` ending the arm.
        if let Some(kind) = toks.get(j).and_then(|t| t.num()).and_then(parse_num) {
            if matches!(toks.get(j + 1), Some(t) if t.is_punct(',') || t.is_punct('}')) {
                encode.insert(kind, variant.to_string());
            }
            continue;
        }
        // `w . put_u8 ( N`
        if toks.get(j).and_then(|t| t.ident()).is_some()
            && matches!(toks.get(j + 1), Some(t) if t.is_punct('.'))
            && matches!(toks.get(j + 2), Some(t) if t.is_ident("put_u8"))
            && matches!(toks.get(j + 3), Some(t) if t.is_punct('('))
        {
            if let Some(kind) = toks.get(j + 4).and_then(|t| t.num()).and_then(parse_num) {
                encode.insert(kind, variant.to_string());
            }
        }
    }
    (encode, decode)
}

fn compare_kind_maps(
    wire: &SourceFile,
    enum_name: &str,
    side: &str,
    code: &BTreeMap<u64, String>,
    doc: &BTreeMap<u64, String>,
    out: &mut Vec<Finding>,
) {
    if code.is_empty() {
        // Nothing on either side means there is nothing to pin (a
        // fixture without that enum); a doc table with no code arms is
        // a codec-shape change the rule can no longer see — fail loud.
        if !doc.is_empty() {
            out.push(Finding::new(
                wire.rel.clone(),
                1,
                RULE,
                format!("could not extract any {enum_name} {side}s from wire.rs: codec shape changed under the drift rule"),
                "",
            ));
        }
        return;
    }
    for (kind, name) in code {
        match doc.get(kind) {
            Some(doc_name) if doc_name != name => out.push(Finding::new(
                wire.rel.clone(),
                1,
                RULE,
                format!(
                    "{enum_name} {side}: kind {kind} is `{name}` in wire.rs but `{doc_name}` in PROTOCOL.md"
                ),
                "",
            )),
            None => out.push(Finding::new(
                wire.rel.clone(),
                1,
                RULE,
                format!(
                    "{enum_name} {side}: kind {kind} (`{name}`) is not in the PROTOCOL.md table"
                ),
                "",
            )),
            _ => {}
        }
    }
    for (kind, doc_name) in doc {
        if !code.contains_key(kind) {
            out.push(Finding::new(
                wire.rel.clone(),
                1,
                RULE,
                format!(
                    "{enum_name} {side}: PROTOCOL.md kind {kind} (`{doc_name}`) has no arm in wire.rs"
                ),
                "",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn wire_file(src: &str) -> SourceFile {
        SourceFile::scan(
            PathBuf::from("/w/crates/catalog/src/wire.rs"),
            "crates/catalog/src/wire.rs".into(),
            src.into(),
        )
    }

    const WIRE_OK: &str = r#"
pub const FRAME_HEADER_BYTES: usize = 28;
pub const MAX_FRAME_BYTES: usize = 4 << 20;
pub const BATCH_RECORDS: usize = 256;
pub const MAX_BATCH_BYTES: usize = 1 << 20;
pub const ERR_BAD_REQUEST: u16 = 1;
pub const REQUEST_KINDS: [&str; 2] = ["ping", "query"];
impl Request {
    pub fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Query { .. } => 1,
        }
    }
}
impl Codec for Request {
    const TAG: [u8; 4] = *b"SIRQ";
    const VERSION: u16 = 3;
    fn encode(&self, w: &mut W) {
        w.put_u8(self.tag());
    }
    fn decode(r: &mut R) -> Result<Self, E> {
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::Query { a: r.a()?, b: r.b()? },
            _ => return Err(E::Bad),
        })
    }
}
"#;

    const DOC_OK: &str = "\
Version: wire `SIRQ`/`SIRS` v3, lease `SIWL` v1\n\
| offset | size | field |\n\
|---|---|---|\n\
| 0 | 4 | `u32` payload length `N` |\n\
| 28 | N | payload (framed message) |\n\
Limit is **4 MiB** (4,194,304 bytes). Batches close at 256 records\n\
or a 1 MiB byte budget.\n\
| kind | name | fields |\n\
|---|---|---|\n\
| 0 | Ping | — |\n\
| 1 | Query | `a`, `b` |\n\
| code | meaning |\n\
|---|---|\n\
| 1 | malformed request |\n";

    #[test]
    fn clean_wire_and_doc_agree() {
        let fs = check(&[wire_file(WIRE_OK)], Some(DOC_OK));
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn stale_comment_version_is_drift() {
        let src = format!("/// One client request (`SIRQ` v2).\n{WIRE_OK}");
        let fs = check(&[wire_file(&src)], Some(DOC_OK));
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("stale rustdoc"));
    }

    #[test]
    fn kind_renumber_is_drift() {
        let src = WIRE_OK.replace("Request::Query { .. } => 1,", "Request::Query { .. } => 2,");
        let fs = check(&[wire_file(&src)], Some(DOC_OK));
        assert!(
            fs.iter().any(|f| f.message.contains("kind table")),
            "{fs:?}"
        );
    }

    #[test]
    fn version_bump_without_doc_is_drift() {
        let src = WIRE_OK.replace("const VERSION: u16 = 3", "const VERSION: u16 = 4");
        let fs = check(&[wire_file(&src)], Some(DOC_OK));
        assert!(
            fs.iter()
                .any(|f| f.message.contains("Version line says v3")),
            "{fs:?}"
        );
    }

    #[test]
    fn header_size_mismatch_is_drift() {
        let src = WIRE_OK.replace("= 28", "= 20");
        let fs = check(&[wire_file(&src)], Some(DOC_OK));
        assert!(fs.iter().any(|f| f.message.contains("offset 28")), "{fs:?}");
    }

    #[test]
    fn const_exprs_evaluate() {
        assert_eq!(parse_num("4_194_304"), Some(4194304));
        assert_eq!(parse_num("0x1F_u32"), Some(31));
        assert_eq!(parse_num("28usize"), Some(28));
        assert_eq!(group_digits(4194304), "4,194,304");
    }
}
