//! The determinism boundary, pinned. The root `clippy.toml` bans hash
//! containers, wall clocks and ad-hoc threads everywhere; this test
//! collects every `allow`/`expect` of those bans in the workspace's
//! non-test sources and asserts that the set is exactly the sanctioned
//! list below. Widening the boundary — a crate-root allow in an audited
//! crate, say — fails here until the list says so.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use expanse_check::{lexer, workspace_sources};
use std::path::Path;

/// `file: attribute`, the attribute reduced to its kind and the banned
/// lints it names (reasons are elided).
const OPT_OUTS: &[&str] = &[
    // Outside the boundary: the linter, the serving layer and its daemon.
    "crates/check/src/lib.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/check/src/main.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/serve/src/lib.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/served/src/bin/expanse_served.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/served/src/bin/expansectl.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/served/src/lib.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    // The one sanctioned fan-out module.
    "crates/addr/src/par.rs: #![expect(clippy::disallowed_methods)]",
    // Two scoped thread pools whose output is pinned across thread counts.
    "crates/core/src/hitlist.rs: #[expect(clippy::disallowed_methods)]",
    "crates/zmap6/src/scanner.rs: #[expect(clippy::disallowed_methods)]",
    // The bench harness's wall clocks, which never enter a report.
    "crates/bench/src/bin/experiments.rs: #![expect(clippy::disallowed_types)]",
    "crates/bench/src/exp_serve_load.rs: #![expect(clippy::disallowed_types, clippy::disallowed_methods)]",
];

/// Every lint attribute in `code` (test regions already blanked) that
/// allows or expects a `clippy::disallowed_*` ban, reduced to its shape.
fn ban_opt_outs(rel: &str, code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find('#') {
        rest = &rest[at + 1..];
        let inner = rest.starts_with('!');
        let Some(body) = rest.strip_prefix('!').unwrap_or(rest).strip_prefix('[') else {
            continue;
        };
        let mut depth = 1;
        let Some(end) = body.find(|c| {
            depth += match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            };
            depth == 0
        }) else {
            continue;
        };
        let attr = &body[..end];
        let lints: Vec<&str> = attr
            .match_indices("clippy::disallowed_")
            .map(|(i, _)| {
                let tail = &attr[i..];
                let len = tail
                    .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .unwrap_or(tail.len());
                &tail[..len]
            })
            .collect();
        let kind = if attr.contains("expect(") {
            "expect"
        } else if attr.contains("allow(") {
            "allow"
        } else {
            continue;
        };
        if !lints.is_empty() {
            let bang = if inner { "!" } else { "" };
            out.push(format!("{rel}: #{bang}[{kind}({})]", lints.join(", ")));
        }
    }
    out
}

#[test]
fn determinism_opt_outs_are_exactly_the_sanctioned_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = Vec::new();
    for rel in workspace_sources(&root).unwrap() {
        let text = std::fs::read_to_string(root.join(&rel)).unwrap();
        let sf = lexer::lex(&text);
        let code: Vec<&str> = (sf.lines.iter().enumerate())
            .map(|(i, l)| if sf.in_test_region(i) { "" } else { &l.code })
            .collect();
        found.extend(ban_opt_outs(&rel, &code.join(" ")));
    }
    found.sort();
    let mut want: Vec<String> = OPT_OUTS.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(found, want);
}

#[test]
fn opt_out_shapes_ignore_reasons_and_other_lints() {
    let code = lexer::lex(
        "#![allow(clippy::disallowed_types, reason = \"clippy::disallowed_methods\")]\n\
         #[cfg_attr(not(test), expect(clippy::disallowed_methods))]\n\
         #[allow(clippy::expect_used, reason = \"x\")] #[derive(Debug)]\n",
    );
    let code: Vec<&str> = code.lines.iter().map(|l| l.code.as_str()).collect();
    assert_eq!(
        ban_opt_outs("f.rs", &code.join(" ")),
        vec![
            "f.rs: #![allow(clippy::disallowed_types)]",
            "f.rs: #[expect(clippy::disallowed_methods)]",
        ]
    );
}
