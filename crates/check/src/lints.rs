//! Token-level lint families: panic-freedom (`panic`, `index`) over the
//! audited decode surfaces, and determinism (`hashmap`, `time`, `thread`)
//! over the crates whose output must be byte-reproducible.

use crate::lexer::SourceFile;
use crate::{Finding, Severity, Surface};

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `tok` in `code` whose preceding char is not an
/// identifier char (so `dont_panic!` never matches `panic!`).
fn token_starts(code: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let needs_boundary = tok.chars().next().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let at = from + pos;
        let bounded =
            !needs_boundary || code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        if bounded {
            out.push(at);
        }
        from = at + tok.len();
    }
    out
}

/// Byte offsets of `word` with identifier boundaries on both sides.
fn word_starts(code: &str, word: &str) -> Vec<usize> {
    token_starts(code, word)
        .into_iter()
        .filter(|&at| {
            code[at + word.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c))
        })
        .collect()
}

/// Panic-capable tokens denied in audited surfaces. `assert!` family is
/// deliberately out: asserts state writer-side invariants, while these
/// surfaces must map *reader-side* (untrusted) input to `Err`.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Keywords that may directly precede `[` without it being an index
/// expression (slice patterns, loop bindings, returns of array literals).
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "dyn", "impl",
    "where", "for", "break", "yield",
];

/// The `panic` + `index` lints over one audited surface.
pub fn panic_index_lints(rel: &str, sf: &SourceFile, surface: &Surface) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    if surface.items.is_empty() {
        ranges.push((0, sf.lines.len().saturating_sub(1)));
    } else {
        for marker in &surface.items {
            match sf.item_range(marker) {
                Some(r) => ranges.push(r),
                None => findings.push(Finding {
                    lint: "surface",
                    file: rel.to_string(),
                    line: 1,
                    severity: Severity::Deny,
                    message: format!(
                        "audited item `{marker}` not found; update the surface list in \
                         expanse-check's policy"
                    ),
                }),
            }
        }
    }

    for (start, end) in ranges {
        for i in start..=end.min(sf.lines.len().saturating_sub(1)) {
            if sf.in_test_region(i) {
                continue;
            }
            let code = sf.lines[i].code.as_str();
            for tok in PANIC_TOKENS {
                for _ in token_starts(code, tok) {
                    findings.push(Finding::at_line(
                        "panic",
                        rel,
                        i,
                        Severity::Deny,
                        format!(
                            "`{tok}` in panic-audited surface: torn input must map to Err, \
                             not a panic"
                        ),
                    ));
                }
            }
            for _ in index_sites(code) {
                findings.push(Finding::at_line(
                    "index",
                    rel,
                    i,
                    Severity::Deny,
                    "slice/array indexing in panic-audited surface: use `.get(..)` so \
                     short input maps to Err"
                        .to_string(),
                ));
            }
        }
    }
    findings
}

/// Heuristic index-expression detector: a `[` directly following an
/// expression tail (identifier, `)`, or `]`) that is not a keyword.
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (at, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let before = code[..at].trim_end();
        let Some(prev) = before.chars().next_back() else {
            continue;
        };
        if prev == ')' || prev == ']' {
            out.push(at);
            continue;
        }
        if !is_ident(prev) {
            continue; // attribute `#[`, macro `vec![`, types `&[u8]`, `: [u8; 4]` …
        }
        let word_start = before
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_ident(c))
            .last()
            .map(|(i, _)| i)
            .unwrap_or(0);
        let word = &before[word_start..];
        if word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue; // `[0u8; 4]`-style literal tails never index
        }
        if !PRE_BRACKET_KEYWORDS.contains(&word) {
            out.push(at);
        }
    }
    out
}

/// The determinism lints over one file of an audited crate.
pub fn determinism_lints(rel: &str, sf: &SourceFile, thread_exempt: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in sf.lines.iter().enumerate() {
        if sf.in_test_region(i) {
            continue;
        }
        let code = line.code.as_str();
        for word in ["HashMap", "HashSet"] {
            for _ in word_starts(code, word) {
                findings.push(Finding::at_line(
                    "hashmap",
                    rel,
                    i,
                    Severity::Deny,
                    format!(
                        "`{word}` in determinism-audited crate: iteration order feeds \
                         the digest/byte stream; use BTreeMap/BTreeSet or annotate why \
                         order never escapes"
                    ),
                ));
            }
        }
        for word in ["Instant", "SystemTime"] {
            for _ in word_starts(code, word) {
                findings.push(Finding::at_line(
                    "time",
                    rel,
                    i,
                    Severity::Deny,
                    format!(
                        "`{word}` in determinism-audited crate: wall clocks make runs \
                         unreproducible; thread virtual time through instead"
                    ),
                ));
            }
        }
        if !thread_exempt {
            for tok in ["thread::spawn", "thread::scope"] {
                for _ in token_starts(code, tok) {
                    findings.push(Finding::at_line(
                        "thread",
                        rel,
                        i,
                        Severity::Deny,
                        format!(
                            "`{tok}` outside expanse_addr::par: ad-hoc threading must \
                             prove order-independence (annotate) or go through the \
                             deterministic fan-out"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn surface(rel: &str) -> Surface {
        Surface {
            file: rel.to_string(),
            items: vec![],
        }
    }

    fn panic_lints_of(src: &str) -> Vec<&'static str> {
        let sf = lex(src);
        panic_index_lints("f.rs", &sf, &surface("f.rs"))
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn panic_tokens_fire() {
        assert_eq!(panic_lints_of("let x = y.unwrap();"), vec!["panic"]);
        assert_eq!(panic_lints_of("let x = y.expect(\"m\");"), vec!["panic"]);
        assert_eq!(panic_lints_of("panic!(\"boom\");"), vec!["panic"]);
        assert_eq!(panic_lints_of("unreachable!()"), vec!["panic"]);
    }

    #[test]
    fn panic_lookalikes_do_not_fire() {
        assert!(panic_lints_of("let x = y.unwrap_or(0);").is_empty());
        assert!(panic_lints_of("let x = y.unwrap_or_else(|e| e.into_inner());").is_empty());
        assert!(panic_lints_of("let x = y.expect_err(\"m\");").is_empty());
        assert!(panic_lints_of("dont_panic!();").is_empty());
        assert!(panic_lints_of("// y.unwrap() in a comment").is_empty());
        assert!(panic_lints_of("let s = \"x.unwrap()\";").is_empty());
    }

    #[test]
    fn index_expressions_fire() {
        assert_eq!(panic_lints_of("let b = buf[0];"), vec!["index"]);
        assert_eq!(panic_lints_of("let s = &bytes[4..8];"), vec!["index"]);
        assert_eq!(panic_lints_of("let x = f()[1];"), vec!["index"]);
        assert_eq!(panic_lints_of("let x = grid[0][1];").len(), 2);
    }

    #[test]
    fn non_index_brackets_do_not_fire() {
        assert!(panic_lints_of("#[derive(Debug)]").is_empty());
        assert!(panic_lints_of("let v: [u8; 4] = [0; 4];").is_empty());
        assert!(panic_lints_of("let v = vec![1, 2];").is_empty());
        assert!(panic_lints_of("fn f(x: &[u8]) -> Vec<[u8; 2]> { todo() }").is_empty());
        assert!(panic_lints_of("let [a, b] = pair;").is_empty());
        assert!(panic_lints_of("if let Some(&[l0, l1, l2, l3]) = lenb.get(..4) {}").is_empty());
        assert!(panic_lints_of("for [x, y] in pairs {}").is_empty());
    }

    #[test]
    fn item_scoped_surface_only_covers_items() {
        let src = "impl Outside {\n    fn f(&self) { x.unwrap(); }\n}\nimpl Audited {\n    fn g(&self) { y.unwrap(); }\n}\n";
        let sf = lex(src);
        let s = Surface {
            file: "f.rs".into(),
            items: vec!["impl Audited".into()],
        };
        let found = panic_index_lints("f.rs", &sf, &s);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn missing_item_marker_is_a_finding() {
        let src = "fn only() {}\n";
        let sf = lex(src);
        let s = Surface {
            file: "f.rs".into(),
            items: vec!["impl Gone".into()],
        };
        let found = panic_index_lints("f.rs", &sf, &s);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].lint, "surface");
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); let b = v[0]; }\n}\n";
        assert!(panic_lints_of(src).is_empty());
    }

    fn det_lints_of(src: &str) -> Vec<&'static str> {
        let sf = lex(src);
        determinism_lints("f.rs", &sf, false)
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn determinism_tokens_fire() {
        assert_eq!(
            det_lints_of("use std::collections::HashMap;"),
            vec!["hashmap"]
        );
        assert_eq!(
            det_lints_of("let s: HashSet<u32> = HashSet::new();").len(),
            2
        );
        assert_eq!(det_lints_of("let t = Instant::now();"), vec!["time"]);
        assert_eq!(det_lints_of("let t = SystemTime::now();"), vec!["time"]);
        assert_eq!(det_lints_of("std::thread::spawn(|| {});"), vec!["thread"]);
        assert_eq!(det_lints_of("thread::scope(|s| {});"), vec!["thread"]);
    }

    #[test]
    fn determinism_lookalikes_do_not_fire() {
        assert!(det_lints_of("use std::collections::BTreeMap;").is_empty());
        assert!(det_lints_of("let x = MyHashMapLike::new();").is_empty());
        assert!(det_lints_of("let d = Duration::from_secs(1);").is_empty());
        let sf = lex("thread::scope(|s| {});");
        assert!(determinism_lints("par.rs", &sf, true).is_empty());
    }
}
