//! `expanse-check` — the workspace invariant linter.
//!
//! A rustc-`tidy`-style static pass: token/line-level analysis over the
//! sanitized source view produced by [`lexer`], no external parser. It
//! enforces the two invariants the compiler cannot see:
//!
//! - **locking** (`lock-order`, `lock-io`): the serve daemon's locks are
//!   acquired in one global order and never held across blocking socket I/O.
//! - **spec-drift** (`spec-drift`): the normative docs' magic/version/
//!   error-code tables must match the constants in code.
//!
//! Determinism (no hash-order, wall clock or ad-hoc thread inside the
//! boundary) and panic-freedom of the decode surfaces are compiler lints:
//! the root `clippy.toml` bans and the `#[deny(clippy::…)]` attributes on
//! the audited items, gated by `cargo clippy -- -D warnings`. The set of
//! determinism opt-outs is pinned by this crate's `boundary` test.
//!
//! There is no exemption mechanism: every finding fails the gate.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary: the linter is tooling and feeds no digest"
)]

pub mod lexer;
pub mod locks;
pub mod report;
pub mod spec;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Every lint id the tool can emit, with a one-line description.
pub const LINTS: &[(&str, &str)] = &[
    (
        "lock-order",
        "lock acquired against the canonical lock order",
    ),
    ("lock-io", "lock held across a blocking socket/disk write"),
    ("spec-drift", "normative doc constant disagrees with code"),
];

/// One diagnostic: file:line, lint id, message. Every finding fails the
/// gate.
#[derive(Clone, Debug)]
pub struct Finding {
    pub lint: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn at_line(lint: &'static str, file: &str, line0: usize, message: String) -> Self {
        Finding {
            lint,
            file: file.to_string(),
            line: line0 + 1,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A lock class participating in the canonical acquisition order.
#[derive(Clone, Debug)]
pub struct LockClass {
    pub name: String,
    /// Position in the canonical order; a lock may only be acquired while
    /// holding locks of *lower* rank.
    pub rank: usize,
    /// Acquisition-site tokens matched against whitespace-collapsed code.
    pub tokens: Vec<String>,
}

/// What the linter enforces and where. `default_policy` encodes this
/// workspace; fixtures construct custom policies.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Repo-relative path prefixes subject to lock analysis.
    pub lock_prefixes: Vec<String>,
    pub lock_classes: Vec<LockClass>,
    /// Blocking-I/O call tokens matched against whitespace-collapsed code.
    pub io_tokens: Vec<String>,
    pub spec: Option<spec::SpecPolicy>,
}

/// The policy for this workspace: the serve lock order and the two
/// normative docs.
pub fn default_policy() -> Policy {
    let s = |v: &str| v.to_string();
    Policy {
        lock_prefixes: vec![s("crates/serve/")],
        lock_classes: vec![
            LockClass {
                name: s("conns"),
                rank: 0,
                tokens: vec![s(".conns.lock(")],
            },
            LockClass {
                name: s("inflight-gate"),
                rank: 1,
                tokens: vec![s(".inflight.acquire(")],
            },
            LockClass {
                name: s("observers"),
                rank: 2,
                tokens: vec![s(".observers.lock(")],
            },
            LockClass {
                name: s("registry-current"),
                rank: 3,
                tokens: vec![s(".current.read("), s(".current.write(")],
            },
            LockClass {
                name: s("cache-inner"),
                rank: 4,
                tokens: vec![s(".inner.lock(")],
            },
            LockClass {
                name: s("limiter-buckets"),
                rank: 5,
                tokens: vec![s(".buckets.lock(")],
            },
            LockClass {
                name: s("gate-held"),
                rank: 6,
                tokens: vec![s(".held.lock(")],
            },
        ],
        io_tokens: [
            "write_all_deadline(",
            "conn.read(",
            "conn.write(",
            ".sync_all(",
            ".sync_data(",
            ".flush(",
        ]
        .iter()
        .map(|p| s(p))
        .collect(),
        spec: Some(spec::SpecPolicy::default()),
    }
}

/// Result of a full workspace scan.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Walk the workspace under `root` and run every lint in `policy`.
pub fn run_checks(root: &Path, policy: &Policy) -> io::Result<Analysis> {
    let mut analysis = Analysis::default();
    for rel in workspace_sources(root)? {
        let abs = root.join(&rel);
        let text = std::fs::read_to_string(&abs)?;
        analysis.files_scanned += 1;
        check_source(&rel, &text, policy, &mut analysis);
    }
    if let Some(spec_policy) = &policy.spec {
        analysis
            .findings
            .extend(spec::spec_lints(root, spec_policy));
    }
    Ok(analysis)
}

/// Lint one source file (exposed for fixture tests).
pub fn check_source(rel: &str, text: &str, policy: &Policy, analysis: &mut Analysis) {
    if policy.lock_prefixes.iter().any(|p| rel.starts_with(p)) {
        let mut findings = locks::lock_lints(rel, &lexer::lex(text), policy);
        findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
        analysis.findings.extend(findings);
    }
}

/// Enumerate repo-relative workspace source paths: `src/**/*.rs` and
/// `crates/*/src/**/*.rs`, sorted; `vendor/`, tests, and examples are out of
/// scope (the invariants govern shipped library/binary code).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), root, &mut out)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_lints_are_registered() {
        let p = default_policy();
        for c in &p.lock_classes {
            assert!(!c.tokens.is_empty());
        }
    }
}
