//! Lock-order and hold-across-I/O analysis for the serve daemon.
//!
//! Token-level, per-file: acquisition sites are matched against a
//! whitespace-collapsed view of the sanitized code (so multi-line method
//! chains like `.conns\n.lock()` still match), and a guard stack is
//! maintained through brace depth, explicit `drop(name)`, and
//! end-of-statement for unbound temporaries. Two findings come out of it:
//!
//! - `lock-order`: acquiring a class while holding a higher-ranked (or the
//!   same) class — an inversion against the canonical order, or a
//!   re-entrant acquisition that self-deadlocks a `Mutex`.
//! - `lock-io`: any guard held at a blocking socket/disk I/O token.
//!
//! The analysis is intraprocedural: a lock passed into a helper that then
//! blocks is invisible. That is the usual tidy-style trade — the canonical
//! order exists precisely so each function can be judged locally.

use crate::lexer::SourceFile;
use crate::{Finding, Policy};

/// Whitespace-collapsed code with a per-char map back to 0-based lines.
/// A single space survives only between two identifier chars (`let mut x`);
/// all other whitespace, including newlines, is dropped so call chains
/// split across lines become contiguous.
struct Compact {
    chars: Vec<char>,
    line_of: Vec<usize>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn compact(sf: &SourceFile) -> Compact {
    let mut chars = Vec::new();
    let mut line_of = Vec::new();
    let mut pending_ws = false;
    for (i, line) in sf.lines.iter().enumerate() {
        if sf.in_test_region(i) {
            continue;
        }
        for c in line.code.chars() {
            if c.is_whitespace() {
                pending_ws = true;
                continue;
            }
            if pending_ws {
                if chars.last().copied().is_some_and(is_ident) && is_ident(c) {
                    chars.push(' ');
                    line_of.push(i);
                }
                pending_ws = false;
            }
            chars.push(c);
            line_of.push(i);
        }
        pending_ws = true;
    }
    Compact { chars, line_of }
}

fn match_at(chars: &[char], at: usize, token: &str) -> bool {
    let tok: Vec<char> = token.chars().collect();
    chars.len() >= at + tok.len() && chars[at..at + tok.len()] == tok[..]
}

/// A lock guard currently held during the scan.
struct Guard {
    class: usize,
    /// Brace depth at acquisition; closing past it releases the guard.
    depth: i64,
    /// Binding name when `let`-bound (releasable by `drop(name)`).
    name: Option<String>,
    /// Unbound temporary: released at the enclosing statement's `;`.
    temp: bool,
}

pub fn lock_lints(rel: &str, sf: &SourceFile, policy: &Policy) -> Vec<Finding> {
    if policy.lock_classes.is_empty() {
        return Vec::new();
    }
    let cc = compact(sf);
    let chars = &cc.chars;
    let mut findings = Vec::new();
    let mut held: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;

    let mut i = 0;
    while i < chars.len() {
        // Acquisition sites.
        let mut acquired = None;
        'classes: for (ci, class) in policy.lock_classes.iter().enumerate() {
            for t in &class.tokens {
                if match_at(chars, i, t) {
                    acquired = Some((ci, t.chars().count()));
                    break 'classes;
                }
            }
        }
        if let Some((ci, tok_len)) = acquired {
            let line0 = cc.line_of[i];
            for g in &held {
                let held_class = &policy.lock_classes[g.class];
                let new_class = &policy.lock_classes[ci];
                if g.class == ci {
                    findings.push(Finding::at_line(
                        "lock-order",
                        rel,
                        line0,
                        format!(
                            "re-entrant acquisition of `{}` while already held — \
                             self-deadlock on a Mutex",
                            new_class.name
                        ),
                    ));
                } else if held_class.rank > new_class.rank {
                    findings.push(Finding::at_line(
                        "lock-order",
                        rel,
                        line0,
                        format!(
                            "`{}` acquired while holding `{}` — inverts the canonical \
                             lock order ({} < {})",
                            new_class.name, held_class.name, new_class.name, held_class.name
                        ),
                    ));
                }
            }
            let (name, bound) = binding_of(chars, i, tok_len);
            held.push(Guard {
                class: ci,
                depth,
                name,
                temp: !bound,
            });
        }

        // Blocking I/O while holding any guard.
        if policy.io_tokens.iter().any(|t| match_at(chars, i, t)) {
            let blocking_held: Vec<&str> = held
                .iter()
                .map(|g| policy.lock_classes[g.class].name.as_str())
                .collect();
            if !blocking_held.is_empty() {
                findings.push(Finding::at_line(
                    "lock-io",
                    rel,
                    cc.line_of[i],
                    format!(
                        "blocking I/O while holding `{}` — drop the guard before \
                         touching the socket/disk",
                        blocking_held.join("`, `")
                    ),
                ));
            }
        }

        // Explicit release.
        if match_at(chars, i, "drop(") {
            let mut j = i + 5;
            let mut name = String::new();
            while j < chars.len() && is_ident(chars[j]) {
                name.push(chars[j]);
                j += 1;
            }
            if j < chars.len() && chars[j] == ')' && !name.is_empty() {
                if let Some(pos) = held
                    .iter()
                    .rposition(|g| g.name.as_deref() == Some(name.as_str()))
                {
                    held.remove(pos);
                }
            }
        }

        match chars[i] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                held.retain(|g| g.depth <= depth);
            }
            ';' => held.retain(|g| !(g.temp && g.depth == depth)),
            _ => {}
        }
        i += 1;
    }
    findings
}

/// Inspect the statement enclosing the acquisition at `at` (token length
/// `tok_len`, ending in `(`): is the *guard itself* `let`-bound, and to
/// what name? Backward: the statement prefix must contain `let`. Forward:
/// the call chain after the lock call must consist only of guard-preserving
/// adapters (`unwrap`/`unwrap_or_else`/`expect`) and then terminate —
/// `let n = m.lock().len();` binds the length, not the guard, and stays a
/// statement-scoped temporary.
fn binding_of(chars: &[char], at: usize, tok_len: usize) -> (Option<String>, bool) {
    let start = chars[..at]
        .iter()
        .rposition(|&c| c == ';' || c == '{' || c == '}')
        .map(|p| p + 1)
        .unwrap_or(0);
    let seg: String = chars[start..at].iter().collect();
    let Some(let_pos) = seg
        .find("let ")
        .filter(|&p| p == 0 || !is_ident(seg[..p].chars().next_back().unwrap_or(' ')))
    else {
        return (None, false);
    };

    // Forward: walk past the lock call's own parens, then any adapters.
    let mut pos = match matching_paren(chars, at + tok_len - 1) {
        Some(close) => close + 1,
        None => return (None, false),
    };
    loop {
        if match_at(chars, pos, ".unwrap()") {
            pos += ".unwrap()".len();
        } else if match_at(chars, pos, ".unwrap_or_else(") {
            match matching_paren(chars, pos + ".unwrap_or_else(".len() - 1) {
                Some(close) => pos = close + 1,
                None => return (None, false),
            }
        } else if match_at(chars, pos, ".expect(") {
            match matching_paren(chars, pos + ".expect(".len() - 1) {
                Some(close) => pos = close + 1,
                None => return (None, false),
            }
        } else {
            break;
        }
    }
    if chars.get(pos).copied() != Some(';') {
        return (None, false); // chain continues: the let binds a projection
    }

    let mut rest = seg[let_pos + 4..].trim_start();
    if let Some(stripped) = rest.strip_prefix("mut ") {
        rest = stripped;
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() {
        (None, true)
    } else {
        (Some(name), true)
    }
}

/// Index of the `)` matching the `(` at `open`, if balanced.
fn matching_paren(chars: &[char], open: usize) -> Option<usize> {
    if chars.get(open).copied() != Some('(') {
        return None;
    }
    let mut depth = 0i64;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::LockClass;

    fn policy() -> Policy {
        let class = |name: &str, rank: usize, tok: &str| LockClass {
            name: name.to_string(),
            rank,
            tokens: vec![tok.to_string()],
        };
        Policy {
            lock_prefixes: vec!["".into()],
            lock_classes: vec![
                class("a", 0, ".a.lock("),
                class("b", 1, ".b.lock("),
                class("gate", 2, ".gate.acquire("),
            ],
            io_tokens: vec!["write_all_deadline(".into(), "conn.write(".into()],
            ..Policy::default()
        }
    }

    fn lints_of(src: &str) -> Vec<(String, usize)> {
        let sf = lex(src);
        lock_lints("f.rs", &sf, &policy())
            .into_iter()
            .map(|f| (f.lint.to_string(), f.line))
            .collect()
    }

    #[test]
    fn in_order_nesting_is_clean() {
        let src = "fn f(s: &S) {\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn inversion_is_flagged() {
        let src = "fn f(s: &S) {\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}\n";
        assert_eq!(lints_of(src), vec![("lock-order".to_string(), 3)]);
    }

    #[test]
    fn reentrant_same_class_is_flagged() {
        let src = "fn f(s: &S) {\n    let g1 = s.a.lock();\n    let g2 = s.a.lock();\n}\n";
        assert_eq!(lints_of(src), vec![("lock-order".to_string(), 3)]);
    }

    #[test]
    fn scope_exit_releases() {
        let src = "fn f(s: &S) {\n    {\n        let gb = s.b.lock();\n    }\n    let ga = s.a.lock();\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases() {
        let src =
            "fn f(s: &S) {\n    let gb = s.b.lock();\n    drop(gb);\n    let ga = s.a.lock();\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn temporary_released_at_statement_end() {
        let src = "fn f(s: &S) {\n    let n = s.b.lock().len();\n    let ga = s.a.lock();\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn multiline_chain_still_matches() {
        let src = "fn f(s: &S) {\n    let n = s\n        .b\n        .lock()\n        .len();\n    let ga = s.a.lock();\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn io_under_lock_is_flagged() {
        let src = "fn f(s: &S, c: &mut C) {\n    let ga = s.a.lock();\n    write_all_deadline(c, b\"x\");\n}\n";
        assert_eq!(lints_of(src), vec![("lock-io".to_string(), 3)]);
    }

    #[test]
    fn io_after_drop_is_clean() {
        let src = "fn f(s: &S, c: &mut C) {\n    let ga = s.a.lock();\n    drop(ga);\n    write_all_deadline(c, b\"x\");\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn gate_is_ordered_like_any_lock() {
        let bad = "fn f(s: &S) {\n    let p = s.gate.acquire();\n    let ga = s.a.lock();\n}\n";
        assert_eq!(lints_of(bad), vec![("lock-order".to_string(), 3)]);
    }
}
