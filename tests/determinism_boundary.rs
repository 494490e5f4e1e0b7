//! The determinism boundary, pinned. The root `clippy.toml` bans hash
//! containers, wall clocks, ad-hoc threads and raw locks everywhere;
//! this test collects every `allow`/`expect` of those bans in the
//! workspace's non-test sources (`src/` and `crates/*/src/`) and asserts
//! that the set is exactly the sanctioned list below. Widening the
//! boundary — a crate-root allow in an audited crate, say — fails here
//! until the list says so.
//!
//! The scan leans on `cargo fmt`: attributes start their line, and a
//! `#[cfg(test)]` item ends at the first line back at its indentation
//! that closes a brace or a statement.

use std::path::Path;

/// `file: attribute`, the attribute reduced to its kind and the banned
/// lints it names (reasons are elided).
const OPT_OUTS: &[&str] = &[
    // Outside the boundary: the serving layer and its daemon.
    "crates/serve/src/lib.rs: #![allow(clippy::disallowed_types)]",
    "crates/served/src/bin/expanse_served.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/served/src/bin/expansectl.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    "crates/served/src/lib.rs: #![allow(clippy::disallowed_types, clippy::disallowed_methods)]",
    // The serving layer's one lock module and its two thread spawns.
    "crates/serve/src/sync.rs: #![expect(clippy::disallowed_methods)]",
    "crates/serve/src/transport.rs: #[expect(clippy::disallowed_methods)]",
    "crates/serve/src/transport.rs: #[expect(clippy::disallowed_methods)]",
    // The one sanctioned fan-out module.
    "crates/addr/src/par.rs: #![expect(clippy::disallowed_methods)]",
    // The bench harness's wall clock, which never enters a report.
    "crates/bench/src/bin/experiments.rs: #![expect(clippy::disallowed_types)]",
];

/// Every ban opt-out outside `#[cfg(test)]` items in `text`, reduced to
/// its shape: `rel: #[kind(lints)]`.
fn ban_opt_outs(rel: &str, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_start();
        if line.starts_with("#[cfg(") && line.contains("test") {
            let end = (i + 1..lines.len()).find(|&j| {
                let l = lines[j].trim();
                indent(lines[j]) == indent(lines[i]) && (l.starts_with('}') || l.ends_with(';'))
            });
            i = end.unwrap_or(lines.len()) + 1;
            continue;
        }
        if let Some(attr) = line.strip_prefix("#!").or(line.strip_prefix('#')) {
            // The attribute up to its closing bracket, outside strings.
            let mut text = String::new();
            let (mut depth, mut in_str, mut escaped) = (0, false, false);
            'attr: for l in &lines[i..] {
                let l = if text.is_empty() { attr } else { l.trim() };
                for c in l.chars() {
                    text.push(c);
                    match (in_str, c) {
                        (true, _) if escaped => escaped = false,
                        (true, '\\') => escaped = true,
                        (_, '"') => in_str = !in_str,
                        (false, '[') => depth += 1,
                        (false, ']') => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 && !text.is_empty() {
                        break 'attr;
                    }
                }
                text.push(' ');
            }
            let head = text.split("reason").next().unwrap_or_default();
            let lints: Vec<&str> = (head
                .split(|c: char| !(c.is_alphanumeric() || "_:".contains(c))))
            .filter(|t| t.starts_with("clippy::disallowed_"))
            .collect();
            let kind = ["expect(", "allow("].into_iter().find(|k| head.contains(k));
            if let (Some(kind), false) = (kind, lints.is_empty()) {
                let bang = if line.starts_with("#!") { "!" } else { "" };
                out.push(format!("{rel}: #{bang}[{kind}{})]", lints.join(", ")));
            }
        }
        i += 1;
    }
    out
}

/// Repo-relative paths of `src/**/*.rs` and `crates/*/src/**/*.rs`.
fn workspace_sources(root: &Path) -> Vec<String> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.map(|e| e.unwrap().path()) {
            if path.is_dir() {
                walk(&path, root, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap();
                out.push(rel.to_str().unwrap().to_string());
            }
        }
    }
    let mut out = Vec::new();
    walk(&root.join("src"), root, &mut out);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        walk(&krate.unwrap().path().join("src"), root, &mut out);
    }
    out
}

#[test]
fn determinism_opt_outs_are_exactly_the_sanctioned_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for rel in workspace_sources(root) {
        let text = std::fs::read_to_string(root.join(&rel)).unwrap();
        found.extend(ban_opt_outs(&rel, &text));
    }
    found.sort();
    let mut want: Vec<String> = OPT_OUTS.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(found, want);
}

#[test]
fn opt_out_shapes_ignore_reasons_tests_and_other_lints() {
    let text = "#![allow(\n    clippy::disallowed_types,\n    reason = \"no [clippy::disallowed_methods]\"\n)]\n\
                #[cfg_attr(not(test), expect(clippy::disallowed_methods))]\n\
                /// #[expect(clippy::disallowed_types)] in a doc comment\n\
                #[allow(clippy::expect_used, reason = \"x\")] #[derive(Debug)]\n\
                fn f() {\n    #[expect(clippy::disallowed_methods, reason = \"a \\\"]\\\" b\")]\n    g();\n}\n\
                #[cfg(test)]\nmod tests {\n    #[expect(clippy::disallowed_types)]\n    fn t() {}\n}\n\
                #[expect(clippy::disallowed_types)]\nfn after_tests() {}\n";
    assert_eq!(
        ban_opt_outs("f.rs", text),
        vec![
            "f.rs: #![allow(clippy::disallowed_types)]",
            "f.rs: #[expect(clippy::disallowed_methods)]",
            "f.rs: #[expect(clippy::disallowed_methods)]",
            "f.rs: #[expect(clippy::disallowed_types)]",
        ]
    );
}
