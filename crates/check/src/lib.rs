//! `expanse-check` — the workspace invariant linter.
//!
//! A rustc-`tidy`-style static pass: token/line-level analysis over the
//! sanitized source view produced by [`lexer`], no external parser. It
//! enforces the invariants the test suites can only sample dynamically:
//!
//! - **panic-freedom** (`panic`, `index`): decode/recovery surfaces must map
//!   torn input to `Err`, never to a panic.
//! - **determinism** (`hashmap`, `time`, `thread`): crates feeding the
//!   fan-out digest or the snapshot byte stream must not depend on hash-map
//!   iteration order, wall clocks, or ad-hoc threading.
//! - **locking** (`lock-order`, `lock-io`): the serve daemon's locks are
//!   acquired in one global order and never held across blocking socket I/O.
//! - **spec-drift** (`spec-drift`): the normative docs' magic/version/
//!   error-code tables must match the constants in code.
//!
//! Audited exceptions are annotated in source with a `//` comment reading
//! `check:` + ` allow(<lint>, <reason>)` on (or directly above) the
//! offending line. There is no other exemption mechanism: every deny
//! finding fails the gate.

pub mod lexer;
pub mod lints;
pub mod locks;
pub mod report;
pub mod spec;

use lexer::SourceFile;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Every lint id the tool can emit, with a one-line description.
pub const LINTS: &[(&str, &str)] = &[
    (
        "panic",
        "unwrap/expect/panic! in a panic-audited decode surface",
    ),
    (
        "index",
        "slice/array indexing in a panic-audited decode surface",
    ),
    ("hashmap", "HashMap/HashSet in a determinism-audited crate"),
    ("time", "Instant/SystemTime in a determinism-audited crate"),
    ("thread", "thread::spawn/scope outside expanse_addr::par"),
    (
        "lock-order",
        "lock acquired against the canonical lock order",
    ),
    ("lock-io", "lock held across a blocking socket/disk write"),
    ("spec-drift", "normative doc constant disagrees with code"),
    ("surface", "configured audit surface not found in source"),
    ("annotation", "malformed or unknown check annotation"),
    ("unused-allow", "check annotation that suppresses nothing"),
];

/// Lints that an allow annotation may suppress.
const SUPPRESSIBLE: &[&str] = &[
    "panic",
    "index",
    "hashmap",
    "time",
    "thread",
    "lock-order",
    "lock-io",
];

pub fn lint_exists(id: &str) -> bool {
    LINTS.iter().any(|&(l, _)| l == id)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    Deny,
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One diagnostic: file:line, lint id, severity, message.
#[derive(Clone, Debug)]
pub struct Finding {
    pub lint: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub severity: Severity,
    pub message: String,
}

impl Finding {
    pub fn at_line(
        lint: &'static str,
        file: &str,
        line0: usize,
        severity: Severity,
        message: String,
    ) -> Self {
        Finding {
            lint,
            file: file.to_string(),
            line: line0 + 1,
            severity,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file,
            self.line,
            self.lint,
            self.severity.as_str(),
            self.message
        )
    }
}

/// A panic-audit surface: a file, optionally narrowed to named items.
#[derive(Clone, Debug)]
pub struct Surface {
    /// Repo-relative path.
    pub file: String,
    /// Item header markers (e.g. `"impl FrameAssembler"`); empty = whole file.
    pub items: Vec<String>,
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
    pub panic_surfaces: Vec<Surface>,
    /// Repo-relative path prefixes of determinism-audited code.
    pub det_prefixes: Vec<String>,
    /// Files exempt from the `thread` lint (the sanctioned fan-out module).
    pub thread_exempt: Vec<String>,
    /// Repo-relative path prefixes subject to lock analysis.
    pub lock_prefixes: Vec<String>,
    pub lock_classes: Vec<LockClass>,
    /// Blocking-I/O call tokens matched against whitespace-collapsed code.
    pub io_tokens: Vec<String>,
    pub spec: Option<spec::SpecPolicy>,
}

/// The policy for this workspace: which surfaces are panic-audited, which
/// crates must stay deterministic, the serve lock order, and the two
/// normative docs.
pub fn default_policy() -> Policy {
    let s = |v: &str| v.to_string();
    Policy {
        panic_surfaces: vec![
            // Whole-file decode surfaces: all input is untrusted bytes.
            Surface {
                file: s("crates/addr/src/codec.rs"),
                items: vec![],
            },
            Surface {
                file: s("crates/core/src/journal.rs"),
                items: vec![],
            },
            // Item-scoped: resume/replay machinery inside a larger file.
            Surface {
                file: s("crates/core/src/pipeline.rs"),
                items: vec![
                    s("pub fn resume"),
                    s("impl PersistedState"),
                    s("impl<R: Read> Read for CountingReader<R>"),
                    s("fn read_or_eof"),
                ],
            },
            Surface {
                file: s("crates/serve/src/transport.rs"),
                items: vec![s("impl FrameAssembler")],
            },
        ],
        det_prefixes: [
            // Every crate feeding the fan-out digest or the snapshot byte
            // stream. serve/served only consume immutable views; bench and
            // the linter itself are tooling.
            "crates/addr/",
            "crates/apd/",
            "crates/core/",
            "crates/eip/",
            "crates/entropy/",
            "crates/model/",
            "crates/netsim/",
            "crates/packet/",
            "crates/scamper6/",
            "crates/sched/",
            "crates/sixgen/",
            "crates/stats/",
            "crates/trie/",
            "crates/zesplot/",
            "crates/zmap6/",
            "src/",
        ]
        .iter()
        .map(|p| s(p))
        .collect(),
        thread_exempt: vec![s("crates/addr/src/par.rs")],
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
    /// Findings suppressed by a used allow annotation.
    pub allowed: usize,
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
    let sf = lexer::lex(text);

    let mut findings = Vec::new();
    for surface in &policy.panic_surfaces {
        if surface.file == rel {
            findings.extend(lints::panic_index_lints(rel, &sf, surface));
        }
    }
    if policy.det_prefixes.iter().any(|p| rel.starts_with(p)) {
        let thread_exempt = policy.thread_exempt.iter().any(|f| f == rel);
        findings.extend(lints::determinism_lints(rel, &sf, thread_exempt));
    }
    if policy.lock_prefixes.iter().any(|p| rel.starts_with(p)) {
        findings.extend(locks::lock_lints(rel, &sf, policy));
    }

    let (mut allows, malformed) = collect_allows(rel, &sf);
    findings.retain(|f| {
        if !SUPPRESSIBLE.contains(&f.lint) {
            return true;
        }
        let line0 = f.line - 1;
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.target == line0 && a.lint == f.lint {
                a.used = true;
                suppressed = true;
            }
        }
        if suppressed {
            analysis.allowed += 1;
        }
        !suppressed
    });
    findings.extend(malformed);
    for a in &allows {
        if !a.used {
            findings.push(Finding::at_line(
                "unused-allow",
                rel,
                a.at,
                Severity::Warn,
                format!("allow({}) suppresses no finding; remove it", a.lint),
            ));
        }
    }
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    analysis.findings.extend(findings);
}

/// A parsed allow annotation (`check:` + ` allow(<lint>, <reason>)`).
struct Allow {
    /// 0-based line the comment sits on.
    at: usize,
    /// 0-based code line it suppresses (same line, or first code line below).
    target: usize,
    lint: String,
    used: bool,
}

const ALLOW_TRIGGER: &str = "check: allow";

fn collect_allows(rel: &str, sf: &SourceFile) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for (i, line) in sf.lines.iter().enumerate() {
        if sf.in_test_region(i) {
            continue;
        }
        for comment in &line.comments {
            let Some(pos) = comment.find(ALLOW_TRIGGER) else {
                continue;
            };
            let rest = comment[pos + ALLOW_TRIGGER.len()..].trim_start();
            let parsed = rest.strip_prefix('(').and_then(|r| {
                let inner = r.split(')').next()?;
                let (lint, reason) = inner.split_once(',')?;
                Some((lint.trim().to_string(), reason.trim().to_string()))
            });
            let Some((lint, reason)) = parsed else {
                malformed.push(Finding::at_line(
                    "annotation",
                    rel,
                    i,
                    Severity::Deny,
                    "malformed annotation: expected `check: allow(<lint>, <reason>)`".to_string(),
                ));
                continue;
            };
            if !lint_exists(&lint) {
                malformed.push(Finding::at_line(
                    "annotation",
                    rel,
                    i,
                    Severity::Deny,
                    format!("annotation names unknown lint `{lint}`"),
                ));
                continue;
            }
            if reason.is_empty() {
                malformed.push(Finding::at_line(
                    "annotation",
                    rel,
                    i,
                    Severity::Deny,
                    format!("allow({lint}) is missing its reason"),
                ));
                continue;
            }
            let target = if sf.lines[i].is_code_blank() {
                (i + 1..sf.lines.len())
                    .find(|&j| !sf.lines[j].is_code_blank())
                    .unwrap_or(i)
            } else {
                i
            };
            allows.push(Allow {
                at: i,
                target,
                lint,
                used: false,
            });
        }
    }
    (allows, malformed)
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

    fn run_one(rel: &str, text: &str, policy: &Policy) -> Analysis {
        let mut a = Analysis::default();
        check_source(rel, text, policy, &mut a);
        a
    }

    fn surface_policy(rel: &str) -> Policy {
        Policy {
            panic_surfaces: vec![Surface {
                file: rel.to_string(),
                items: vec![],
            }],
            ..Policy::default()
        }
    }

    #[test]
    fn allow_suppresses_and_is_counted() {
        let rel = "crates/x/src/lib.rs";
        let src = "fn f(v: &[u8]) -> u8 {\n    // check: allow(index, bounds proven above)\n    v[0]\n}\n";
        let a = run_one(rel, src, &surface_policy(rel));
        assert_eq!(a.allowed, 1, "{:?}", a.findings);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let rel = "crates/x/src/lib.rs";
        let src = "// check: allow(panic, nothing here panics)\nfn f() {}\n";
        let a = run_one(rel, src, &surface_policy(rel));
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].lint, "unused-allow");
        assert_eq!(a.findings[0].severity, Severity::Warn);
    }

    #[test]
    fn malformed_and_unknown_annotations() {
        let rel = "crates/x/src/lib.rs";
        let src = "// check: allow(panic)\n// check: allow(not-a-lint, reason)\nfn f() {}\n";
        let a = run_one(rel, src, &surface_policy(rel));
        let lints: Vec<&str> = a.findings.iter().map(|f| f.lint).collect();
        assert_eq!(lints, vec!["annotation", "annotation"]);
    }

    #[test]
    fn default_policy_lints_are_registered() {
        let p = default_policy();
        for c in &p.lock_classes {
            assert!(!c.tokens.is_empty());
        }
        assert!(lint_exists("panic") && lint_exists("spec-drift"));
    }
}
