//! The normative docs against the constants that implement them.
//!
//! `docs/SNAPSHOT_FORMAT.md` and `docs/SERVE_PROTOCOL.md` are the
//! formats' contracts, so their version sentences, magic tables,
//! error-code table, frame ceiling and result clamp must equal the code's
//! constants, read here as values. Tables are compared in both
//! directions, and a doc anchor that vanishes (a reworded sentence, a
//! renamed table header) fails as loudly as a wrong number.

use expanse::addr::codec::CODEC_VERSION;
use expanse::core::pipeline::{DELTA_MAGIC, PIPELINE_MAGIC};
use expanse::serve::protocol::{
    ERROR_CODES, MAX_FRAME_LEN, MAX_RESULT_ADDRS, PROTOCOL_VERSION, REQUEST_MAGIC, RESPONSE_MAGIC,
};
use std::collections::BTreeSet;

const SNAPSHOT_DOC: &str = include_str!("../docs/SNAPSHOT_FORMAT.md");
const SERVE_DOC: &str = include_str!("../docs/SERVE_PROTOCOL.md");
const PROTOCOL_SRC: &str = include_str!("../crates/serve/src/protocol.rs");

/// `N` of the doc's "current version for both … **N**" sentence.
fn doc_version(doc: &str) -> u64 {
    let line = (doc.lines())
        .find(|l| l.contains("current version for both"))
        .expect("anchor `current version for both … **N**` vanished");
    let n = line.split("**").nth(1).expect("version is not in bold");
    n.trim().parse().expect("version is not a number")
}

/// The power after `anchor`, written like `2²⁴`.
fn doc_power(doc: &str, anchor: &str) -> u64 {
    let at = doc
        .find(anchor)
        .unwrap_or_else(|| panic!("anchor `{anchor}` vanished"));
    let tail = doc[at + anchor.len()..].trim_start();
    let base: String = tail.chars().take_while(char::is_ascii_digit).collect();
    let exp: String = (tail[base.len()..].chars())
        .map_while(|c| "⁰¹²³⁴⁵⁶⁷⁸⁹".chars().position(|s| s == c))
        .map(|d| char::from(b'0' + d as u8))
        .collect();
    let base: u64 = base.parse().expect("no base after the anchor");
    base.pow(exp.parse().expect("no exponent after the anchor"))
}

/// The body rows of the first `|` table whose first header cell is
/// `header`, each row's cells trimmed and stripped of backticks.
fn doc_table(doc: &str, header: &str) -> Vec<Vec<String>> {
    let cells = |l: &str| -> Vec<String> {
        let row = l.trim().trim_matches('|');
        (row.split('|'))
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect()
    };
    let mut lines = doc.lines().skip_while(|l| {
        !l.trim_start().starts_with('|') || !cells(l)[0].eq_ignore_ascii_case(header)
    });
    assert!(lines.next().is_some(), "table headed `{header}` vanished");
    let rows: Vec<Vec<String>> = lines
        .take_while(|l| l.trim_start().starts_with('|'))
        .filter(|l| !l.contains("---"))
        .map(cells)
        .collect();
    assert!(!rows.is_empty(), "table headed `{header}` has no rows");
    rows
}

/// The doc's magic table against the code's magics, both directions.
fn assert_magics(doc: &str, code: &[[u8; 8]]) {
    let in_doc: BTreeSet<String> = doc_table(doc, "magic")
        .into_iter()
        .map(|row| row[0].clone())
        .collect();
    let in_code: BTreeSet<String> = (code.iter())
        .map(|m| String::from_utf8_lossy(m).into_owned())
        .collect();
    assert_eq!(in_doc, in_code, "magic table ≠ magic constants");
}

#[test]
fn snapshot_format_matches_the_codec() {
    assert_eq!(doc_version(SNAPSHOT_DOC), u64::from(CODEC_VERSION));
    assert_magics(SNAPSHOT_DOC, &[PIPELINE_MAGIC, DELTA_MAGIC]);
}

#[test]
fn serve_protocol_matches_the_wire_constants() {
    assert_eq!(doc_version(SERVE_DOC), u64::from(PROTOCOL_VERSION));
    assert_magics(SERVE_DOC, &[REQUEST_MAGIC, RESPONSE_MAGIC]);
    assert_eq!(
        doc_power(SERVE_DOC, "frame_len > "),
        u64::from(MAX_FRAME_LEN)
    );
    assert_eq!(
        doc_power(SERVE_DOC, "clamp `limit` and `k` to "),
        MAX_RESULT_ADDRS as u64
    );
}

#[test]
fn serve_error_table_matches_error_codes() {
    let in_doc: BTreeSet<(u8, String)> = doc_table(SERVE_DOC, "code")
        .into_iter()
        .map(|row| {
            let code = row[0].parse().expect("error code is not a number");
            (code, format!("ERR_{}", row[1]))
        })
        .collect();
    let in_code: BTreeSet<(u8, String)> = (ERROR_CODES.iter())
        .map(|&(code, name)| (code, name.to_string()))
        .collect();
    assert_eq!(in_doc, in_code, "error table ≠ ERROR_CODES");
}

#[test]
fn every_err_constant_is_in_error_codes() {
    let consts = (PROTOCOL_SRC.lines())
        .filter(|l| l.starts_with("pub const ERR_"))
        .count();
    assert_eq!(
        consts,
        ERROR_CODES.len(),
        "an ERR_* constant is missing from ERROR_CODES"
    );
}

#[test]
fn anchors_parse_powers_and_vanish_loudly() {
    assert_eq!(doc_power("to 2¹⁶ addresses", "to "), 1 << 16);
    let gone = std::panic::catch_unwind(|| doc_power("reworded", "frame_len > "));
    assert!(gone.is_err(), "a vanished anchor must fail");
    let gone = std::panic::catch_unwind(|| doc_version("The version is 4."));
    assert!(gone.is_err(), "a vanished version sentence must fail");
    let gone =
        std::panic::catch_unwind(|| doc_table("| name | bytes |\n|--|--|\n| a | 1 |", "magic"));
    assert!(gone.is_err(), "a vanished table must fail");
}
