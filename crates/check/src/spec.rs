//! Spec-drift: diff the normative docs' magic/version/error-code tables
//! against the constants in code, in both directions, so neither side can
//! rot silently. Anchors that go missing (a reworded sentence, a renamed
//! constant) are themselves findings — a parser that silently no-ops when
//! its anchor disappears is just drift with extra steps.

use crate::Finding;
use std::path::Path;

/// Where the normative docs and their implementing constants live.
#[derive(Clone, Debug)]
pub struct SpecPolicy {
    pub snapshot_doc: String,
    pub serve_doc: String,
    /// `CODEC_VERSION`, `TABLE_MAGIC`, `SET_MAGIC`.
    pub codec_src: String,
    /// `PIPELINE_MAGIC`, `DELTA_MAGIC`.
    pub pipeline_src: String,
    /// `PROTOCOL_VERSION`, `REQUEST_MAGIC`, `RESPONSE_MAGIC`, `ERR_*`,
    /// `MAX_FRAME_LEN`, `MAX_RESULT_ADDRS`.
    pub protocol_src: String,
}

impl Default for SpecPolicy {
    fn default() -> Self {
        SpecPolicy {
            snapshot_doc: "docs/SNAPSHOT_FORMAT.md".to_string(),
            serve_doc: "docs/SERVE_PROTOCOL.md".to_string(),
            codec_src: "crates/addr/src/codec.rs".to_string(),
            pipeline_src: "crates/core/src/pipeline.rs".to_string(),
            protocol_src: "crates/serve/src/protocol.rs".to_string(),
        }
    }
}

struct Ctx {
    findings: Vec<Finding>,
}

impl Ctx {
    fn drift(&mut self, file: &str, line0: usize, message: String) {
        self.findings
            .push(Finding::at_line("spec-drift", file, line0, message));
    }
}

pub fn spec_lints(root: &Path, p: &SpecPolicy) -> Vec<Finding> {
    let mut ctx = Ctx {
        findings: Vec::new(),
    };
    let read = |ctx: &mut Ctx, rel: &str| -> Option<Vec<String>> {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => Some(text.lines().map(|l| l.to_string()).collect()),
            Err(e) => {
                ctx.drift(rel, 0, format!("normative input unreadable: {e}"));
                None
            }
        }
    };
    let snapshot_doc = read(&mut ctx, &p.snapshot_doc);
    let serve_doc = read(&mut ctx, &p.serve_doc);
    let codec = read(&mut ctx, &p.codec_src);
    let pipeline = read(&mut ctx, &p.pipeline_src);
    let protocol = read(&mut ctx, &p.protocol_src);

    if let (Some(doc), Some(codec), Some(pipeline)) = (&snapshot_doc, &codec, &pipeline) {
        check_snapshot(&mut ctx, p, doc, codec, pipeline);
    }
    if let (Some(doc), Some(protocol)) = (&serve_doc, &protocol) {
        check_serve(&mut ctx, p, doc, protocol);
    }
    ctx.findings
}

fn check_snapshot(
    ctx: &mut Ctx,
    p: &SpecPolicy,
    doc: &[String],
    codec: &[String],
    pipeline: &[String],
) {
    // Version: the doc's "current version for both envelopes is **N**"
    // against `CODEC_VERSION` (both envelope kinds share the codec gate).
    check_version(
        ctx,
        &p.snapshot_doc,
        doc,
        &p.codec_src,
        codec,
        "CODEC_VERSION",
    );

    // Magics: doc table vs the four code constants, both directions.
    let code_magics = [
        (&p.codec_src, "TABLE_MAGIC", codec),
        (&p.codec_src, "SET_MAGIC", codec),
        (&p.pipeline_src, "PIPELINE_MAGIC", pipeline),
        (&p.pipeline_src, "DELTA_MAGIC", pipeline),
    ];
    check_magics(ctx, &p.snapshot_doc, doc, &code_magics);
}

fn check_serve(ctx: &mut Ctx, p: &SpecPolicy, doc: &[String], protocol: &[String]) {
    check_version(
        ctx,
        &p.serve_doc,
        doc,
        &p.protocol_src,
        protocol,
        "PROTOCOL_VERSION",
    );

    let code_magics = [
        (&p.protocol_src, "REQUEST_MAGIC", protocol),
        (&p.protocol_src, "RESPONSE_MAGIC", protocol),
    ];
    check_magics(ctx, &p.serve_doc, doc, &code_magics);

    // Error codes: every doc row must have a matching `ERR_<NAME>` constant
    // and every `ERR_*` constant must appear in the doc table.
    let doc_codes = error_table(doc);
    if doc_codes.is_empty() {
        ctx.drift(
            &p.serve_doc,
            0,
            "error-code table not found (| code | name | header)".into(),
        );
    }
    let code_codes = consts_with_prefix(protocol, "ERR_");
    if code_codes.is_empty() {
        ctx.drift(&p.protocol_src, 0, "no ERR_* constants found".into());
    }
    for &(doc_line, code, ref name) in &doc_codes {
        let want = format!("ERR_{name}");
        match code_codes.iter().find(|(_, n, _)| *n == want) {
            None => ctx.drift(
                &p.serve_doc,
                doc_line,
                format!(
                    "doc error code {code} `{name}` has no `{want}` constant in {}",
                    p.protocol_src
                ),
            ),
            Some(&(code_line, _, value)) if value != u64::from(code) => ctx.drift(
                &p.protocol_src,
                code_line,
                format!("`{want}` = {value} but the doc table says {code}"),
            ),
            Some(_) => {}
        }
    }
    for &(code_line, ref name, value) in &code_codes {
        let short = name.strip_prefix("ERR_").unwrap_or(name);
        if !doc_codes.iter().any(|(_, _, n)| n == short) {
            ctx.drift(
                &p.protocol_src,
                code_line,
                format!("`{name}` ({value}) missing from the doc's error-code table"),
            );
        }
    }

    // Frame ceiling: "reject `frame_len > 2²⁴`" vs MAX_FRAME_LEN.
    check_power_anchor(
        ctx,
        &p.serve_doc,
        doc,
        "frame_len > ",
        &p.protocol_src,
        protocol,
        "MAX_FRAME_LEN",
    );
    // Result clamp: "clamp `limit` and `k` to 2¹⁶" vs MAX_RESULT_ADDRS.
    check_power_anchor(
        ctx,
        &p.serve_doc,
        doc,
        "clamp `limit` and `k` to ",
        &p.protocol_src,
        protocol,
        "MAX_RESULT_ADDRS",
    );
}

fn check_version(
    ctx: &mut Ctx,
    doc_rel: &str,
    doc: &[String],
    src_rel: &str,
    src: &[String],
    const_name: &str,
) {
    let doc_version = doc.iter().enumerate().find_map(|(i, l)| {
        if !l.contains("current version for both") {
            return None;
        }
        let inner = l.split("**").nth(1)?;
        Some((i, inner.trim().parse::<u64>().ok()?))
    });
    let Some((_doc_line, doc_v)) = doc_version else {
        ctx.drift(
            doc_rel,
            0,
            "version anchor `current version for both ... **N**` not found".into(),
        );
        return;
    };
    match const_u64(src, const_name) {
        None => ctx.drift(src_rel, 0, format!("`{const_name}` constant not found")),
        Some((line, v)) if v != doc_v => ctx.drift(
            src_rel,
            line,
            format!("`{const_name}` = {v} but {doc_rel} says the current version is {doc_v}"),
        ),
        Some(_) => {}
    }
}

fn check_magics(ctx: &mut Ctx, doc_rel: &str, doc: &[String], code: &[(&String, &str, &[String])]) {
    let doc_magics = magic_table(doc);
    if doc_magics.is_empty() {
        ctx.drift(
            doc_rel,
            0,
            "magic table not found (| magic | envelope | header)".into(),
        );
        return;
    }
    let mut code_values = Vec::new();
    for &(src_rel, name, src) in code {
        match const_magic(src, name) {
            None => ctx.drift(src_rel, 0, format!("`{name}` magic constant not found")),
            Some((line, value)) => {
                if !doc_magics.iter().any(|(_, m)| *m == value) {
                    ctx.drift(
                        src_rel,
                        line,
                        format!("`{name}` = `{value}` missing from {doc_rel}'s magic table"),
                    );
                }
                code_values.push(value);
            }
        }
    }
    for &(doc_line, ref magic) in &doc_magics {
        if !code_values.contains(magic) {
            ctx.drift(
                doc_rel,
                doc_line,
                format!("doc magic `{magic}` has no matching constant in code"),
            );
        }
    }
}

fn check_power_anchor(
    ctx: &mut Ctx,
    doc_rel: &str,
    doc: &[String],
    anchor: &str,
    src_rel: &str,
    src: &[String],
    const_name: &str,
) {
    let doc_value = doc.iter().enumerate().find_map(|(i, l)| {
        let at = l.find(anchor)?;
        Some((i, parse_power(&l[at + anchor.len()..])?))
    });
    let Some((_doc_line, doc_v)) = doc_value else {
        ctx.drift(doc_rel, 0, format!("numeric anchor `{anchor}` not found"));
        return;
    };
    match const_u64(src, const_name) {
        None => ctx.drift(src_rel, 0, format!("`{const_name}` constant not found")),
        Some((line, v)) if v != doc_v => ctx.drift(
            src_rel,
            line,
            format!("`{const_name}` = {v} but {doc_rel} (`{anchor}…`) says {doc_v}"),
        ),
        Some(_) => {}
    }
}

/// Rows of the first markdown table whose header's first cell is `magic`:
/// `(0-based doc line, backtick-stripped first cell)`.
fn magic_table(doc: &[String]) -> Vec<(usize, String)> {
    table_rows(doc, "magic")
        .into_iter()
        .map(|(i, cells)| (i, strip_ticks(&cells[0])))
        .collect()
}

/// Rows of the error-code table: `(0-based line, code, backtick-free name)`.
fn error_table(doc: &[String]) -> Vec<(usize, u8, String)> {
    table_rows(doc, "code")
        .into_iter()
        .filter_map(|(i, cells)| {
            let code = cells.first()?.trim().parse::<u8>().ok()?;
            let name = strip_ticks(cells.get(1)?);
            Some((i, code, name))
        })
        .collect()
}

/// Body rows of the first `|`-table whose header's first cell equals
/// `first_header` (case-insensitive).
fn table_rows(doc: &[String], first_header: &str) -> Vec<(usize, Vec<String>)> {
    let mut rows = Vec::new();
    let mut i = 0;
    while i < doc.len() {
        let cells = split_row(&doc[i]);
        let is_header = cells
            .first()
            .is_some_and(|c| c.trim().eq_ignore_ascii_case(first_header));
        if !is_header {
            i += 1;
            continue;
        }
        i += 1;
        // Skip the |---| separator.
        if i < doc.len() && doc[i].trim_start().starts_with('|') && doc[i].contains("---") {
            i += 1;
        }
        while i < doc.len() && doc[i].trim_start().starts_with('|') {
            let cells = split_row(&doc[i]);
            if !cells.is_empty() {
                rows.push((i, cells));
            }
            i += 1;
        }
        break;
    }
    rows
}

fn split_row(line: &str) -> Vec<String> {
    let t = line.trim();
    if !t.starts_with('|') {
        return Vec::new();
    }
    t.trim_matches('|')
        .split('|')
        .map(|c| c.trim().to_string())
        .collect()
}

fn strip_ticks(cell: &str) -> String {
    cell.trim().trim_matches('`').to_string()
}

/// Parse `2²⁴`-style (or plain decimal) values at the head of `s`,
/// stopping at the first char that is neither a digit nor a superscript.
fn parse_power(s: &str) -> Option<u64> {
    let s = s.trim_start();
    let mut base = String::new();
    let mut exp = String::new();
    for c in s.chars() {
        if let Some(d) = superscript_digit(c) {
            exp.push(d);
        } else if c.is_ascii_digit() && exp.is_empty() {
            base.push(c);
        } else {
            break;
        }
    }
    let base: u64 = base.parse().ok()?;
    if exp.is_empty() {
        return Some(base);
    }
    let exp: u32 = exp.parse().ok()?;
    base.checked_pow(exp)
}

fn superscript_digit(c: char) -> Option<char> {
    match c {
        '⁰' => Some('0'),
        '¹' => Some('1'),
        '²' => Some('2'),
        '³' => Some('3'),
        '⁴' => Some('4'),
        '⁵' => Some('5'),
        '⁶' => Some('6'),
        '⁷' => Some('7'),
        '⁸' => Some('8'),
        '⁹' => Some('9'),
        _ => None,
    }
}

/// `(0-based line, value)` of `const NAME: … = <int expr>;` where the
/// expression is a decimal/hex literal, optionally `A << B`, with `_`
/// separators and a trailing cast allowed.
fn const_u64(src: &[String], name: &str) -> Option<(usize, u64)> {
    let (line, expr) = const_expr(src, name)?;
    Some((line, parse_int_expr(&expr)?))
}

/// `(0-based line, magic string)` of `const NAME: [u8; 8] = *b"MAGIC";`.
fn const_magic(src: &[String], name: &str) -> Option<(usize, String)> {
    let (line, expr) = const_expr(src, name)?;
    let at = expr.find("b\"")?;
    let rest = &expr[at + 2..];
    let end = rest.find('"')?;
    Some((line, rest[..end].to_string()))
}

/// Every `const <PREFIX>…` in `src`: `(0-based line, name, value)`.
fn consts_with_prefix(src: &[String], prefix: &str) -> Vec<(usize, String, u64)> {
    let mut out = Vec::new();
    for (i, l) in src.iter().enumerate() {
        let Some(at) = l.find("const ") else { continue };
        let rest = &l[at + 6..];
        let name: String = rest
            .chars()
            .take_while(|&c| c.is_alphanumeric() || c == '_')
            .collect();
        if !name.starts_with(prefix) {
            continue;
        }
        if let Some((_, v)) = const_u64(src, &name) {
            out.push((i, name, v));
        }
    }
    out
}

fn const_expr(src: &[String], name: &str) -> Option<(usize, String)> {
    let needle = format!("const {name}:");
    for (i, l) in src.iter().enumerate() {
        if !l.contains(&needle) {
            continue;
        }
        let eq = l.find('=')?;
        let expr = l[eq + 1..].split(';').next()?.trim().to_string();
        return Some((i, expr));
    }
    None
}

fn parse_int_expr(expr: &str) -> Option<u64> {
    let expr = expr.split(" as ").next()?.trim();
    if let Some((a, b)) = expr.split_once("<<") {
        let a = parse_int(a.trim())?;
        let b = parse_int(b.trim())?;
        return a.checked_shl(u32::try_from(b).ok()?);
    }
    parse_int(expr)
}

fn parse_int(s: &str) -> Option<u64> {
    let s: String = s.chars().filter(|&c| c != '_').collect();
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok();
    }
    // Strip a type-suffix tail like `16u32`.
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_parsing() {
        assert_eq!(parse_power("2²⁴` (16 MiB)"), Some(1 << 24));
        assert_eq!(parse_power("2¹⁶ addresses"), Some(1 << 16));
        assert_eq!(parse_power("128 and more"), Some(128));
        assert_eq!(parse_power("nope"), None);
    }

    #[test]
    fn int_exprs() {
        assert_eq!(parse_int_expr("16 << 20"), Some(16 << 20));
        assert_eq!(parse_int_expr("1 << 16"), Some(1 << 16));
        assert_eq!(parse_int_expr("0xcbf2"), Some(0xcbf2));
        assert_eq!(parse_int_expr("6"), Some(6));
        assert_eq!(parse_int_expr("10_000 as u32"), Some(10_000));
    }

    #[test]
    fn const_extraction() {
        let src = vec![
            "pub const PROTOCOL_VERSION: u16 = 1;".to_string(),
            "pub const REQUEST_MAGIC: [u8; 8] = *b\"EXP6SRVQ\";".to_string(),
            "pub const ERR_MALFORMED: u8 = 1;".to_string(),
            "pub const ERR_TIMEOUT: u8 = 6;".to_string(),
        ];
        assert_eq!(const_u64(&src, "PROTOCOL_VERSION"), Some((0, 1)));
        assert_eq!(
            const_magic(&src, "REQUEST_MAGIC"),
            Some((1, "EXP6SRVQ".to_string()))
        );
        let errs = consts_with_prefix(&src, "ERR_");
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[1], (3, "ERR_TIMEOUT".to_string(), 6));
    }

    #[test]
    fn table_parsing() {
        let doc: Vec<String> = [
            "| magic      | envelope |",
            "|------------|----------|",
            "| `EXP6PIPE` | pipeline base snapshot |",
            "| `EXP6DLTA` | journal delta frame |",
            "",
            "| code | name | meaning | connection |",
            "|------|------|---------|------------|",
            "| 1    | `MALFORMED` | bad | stays open |",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let magics = magic_table(&doc);
        assert_eq!(magics.len(), 2);
        assert_eq!(magics[0].1, "EXP6PIPE");
        let errs = error_table(&doc);
        assert_eq!(errs, vec![(7, 1, "MALFORMED".to_string())]);
    }
}
