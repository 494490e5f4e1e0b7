//! Fixture-driven coverage: a known-bad source must produce exactly the
//! expected lock lints, and a deliberately skewed spec tree must trip
//! `spec-drift`.
//!
//! The fixture files live in `tests/fixtures/` — outside any `src/`
//! directory, so the workspace walker never scans them and cargo never
//! compiles them.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use std::path::{Path, PathBuf};

use expanse_check::spec::{spec_lints, SpecPolicy};
use expanse_check::{check_source, Analysis, LockClass, Policy};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lock_policy(rel: &str) -> Policy {
    Policy {
        lock_prefixes: vec![rel.to_string()],
        lock_classes: vec![
            LockClass {
                name: "a".to_string(),
                rank: 0,
                tokens: vec![".a.lock(".to_string()],
            },
            LockClass {
                name: "b".to_string(),
                rank: 1,
                tokens: vec![".b.lock(".to_string()],
            },
        ],
        io_tokens: vec!["conn.write(".to_string()],
        spec: None,
    }
}

fn lint_multiset(rel: &str, name: &str, policy: &Policy) -> (Vec<String>, Analysis) {
    let text = fixture(name);
    let mut analysis = Analysis::default();
    check_source(rel, &text, policy, &mut analysis);
    let mut lints: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| f.lint.to_string())
        .collect();
    lints.sort();
    (lints, analysis)
}

#[test]
fn lock_fixture_reports_inversion_and_io_under_guard() {
    let rel = "fix/lock_bad.rs";
    let (lints, analysis) = lint_multiset(rel, "lock_bad.rs", &lock_policy(rel));
    assert_eq!(
        lints,
        vec!["lock-io", "lock-order"],
        "findings: {:#?}",
        analysis.findings
    );
    let order = analysis
        .findings
        .iter()
        .find(|f| f.lint == "lock-order")
        .unwrap();
    assert!(
        order.message.contains('a') && order.message.contains('b'),
        "inversion names both classes: {}",
        order.message
    );
}

// ---- spec-drift ------------------------------------------------------

/// Build a miniature repo tree with one snapshot doc, one serve doc, and
/// three code files, then run only the spec checks against it.
struct SpecTree {
    root: PathBuf,
}

impl SpecTree {
    fn new(tag: &str) -> SpecTree {
        let root =
            std::env::temp_dir().join(format!("expanse-check-spec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("docs")).unwrap();
        std::fs::create_dir_all(root.join("code")).unwrap();
        SpecTree { root }
    }

    fn write(&self, rel: &str, text: &str) {
        std::fs::write(self.root.join(rel), text).unwrap();
    }

    fn policy() -> SpecPolicy {
        SpecPolicy {
            snapshot_doc: "docs/snapshot.md".to_string(),
            serve_doc: "docs/serve.md".to_string(),
            codec_src: "code/codec.rs".to_string(),
            pipeline_src: "code/pipeline.rs".to_string(),
            protocol_src: "code/protocol.rs".to_string(),
        }
    }

    fn lints(&self) -> Vec<String> {
        let mut v: Vec<String> = spec_lints(&self.root, &Self::policy())
            .iter()
            .map(|f| format!("{}: {}", f.file, f.message))
            .collect();
        v.sort();
        v
    }
}

impl Drop for SpecTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const SNAPSHOT_DOC: &str = "\
The current version for both envelopes is **2**.

| magic      | envelope |
|------------|----------|
| `EXP6PIPE` | pipeline base snapshot |
| `EXP6DLTA` | journal delta frame |
| `EXPADDRT` | standalone table |
| `EXPADDRS` | standalone set |
";

const SERVE_DOC: &str = "\
Readers must reject `frame_len > 2\u{b2}\u{2074}` (16 MiB) without
allocating it. The current version for both magics is **1**.

| magic      | envelope |
|------------|----------|
| `EXP6SRVQ` | request  |
| `EXP6SRVR` | response |

Servers clamp `limit` and `k` to 2\u{b9}\u{2076} addresses.

| code | name            | meaning | connection |
|------|-----------------|---------|------------|
| 1    | `MALFORMED`     | bad     | stays open |
| 2    | `OVERLOADED`    | full    | closed     |
";

const CODEC_SRC: &str = "\
pub const CODEC_VERSION: u16 = 2;
pub const TABLE_MAGIC: [u8; 8] = *b\"EXPADDRT\";
pub const SET_MAGIC: [u8; 8] = *b\"EXPADDRS\";
";

const PIPELINE_SRC: &str = "\
pub const PIPELINE_MAGIC: [u8; 8] = *b\"EXP6PIPE\";
pub const DELTA_MAGIC: [u8; 8] = *b\"EXP6DLTA\";
";

const PROTOCOL_SRC: &str = "\
pub const PROTOCOL_VERSION: u16 = 1;
pub const REQUEST_MAGIC: [u8; 8] = *b\"EXP6SRVQ\";
pub const RESPONSE_MAGIC: [u8; 8] = *b\"EXP6SRVR\";
pub const MAX_FRAME_LEN: u32 = 16 << 20;
pub const MAX_RESULT_ADDRS: usize = 1 << 16;
pub const ERR_MALFORMED: u8 = 1;
pub const ERR_OVERLOADED: u8 = 2;
";

fn write_all(t: &SpecTree) {
    t.write("docs/snapshot.md", SNAPSHOT_DOC);
    t.write("docs/serve.md", SERVE_DOC);
    t.write("code/codec.rs", CODEC_SRC);
    t.write("code/pipeline.rs", PIPELINE_SRC);
    t.write("code/protocol.rs", PROTOCOL_SRC);
}

#[test]
fn matching_spec_tree_is_clean() {
    let t = SpecTree::new("clean");
    write_all(&t);
    assert_eq!(t.lints(), Vec::<String>::new());
}

#[test]
fn version_skew_is_reported_in_both_docs() {
    let t = SpecTree::new("version");
    write_all(&t);
    t.write(
        "code/codec.rs",
        &CODEC_SRC.replace("CODEC_VERSION: u16 = 2", "CODEC_VERSION: u16 = 3"),
    );
    t.write(
        "docs/serve.md",
        &SERVE_DOC.replace("both magics is **1**", "both magics is **4**"),
    );
    let lints = t.lints();
    assert_eq!(lints.len(), 2, "{lints:#?}");
    assert!(lints.iter().any(|l| l.contains("2") && l.contains("3")));
    assert!(lints.iter().any(|l| l.contains("1") && l.contains("4")));
}

#[test]
fn magic_and_error_table_drift_both_directions() {
    let t = SpecTree::new("tables");
    write_all(&t);
    // Doc-only magic: documented but absent from code.
    t.write(
        "docs/snapshot.md",
        &SNAPSHOT_DOC.replace("| `EXPADDRS` | standalone set |", "| `EXPADDRX` | ghost |"),
    );
    // Code-only error: ERR_RATE_LIMITED exists but is undocumented.
    t.write(
        "code/protocol.rs",
        &format!("{PROTOCOL_SRC}pub const ERR_RATE_LIMITED: u8 = 3;\n"),
    );
    let lints = t.lints();
    // EXPADDRX has no code constant, EXPADDRS has no doc row, and the
    // new error code has no table row: three findings.
    assert_eq!(lints.len(), 3, "{lints:#?}");
    let blob = lints.join("\n");
    assert!(blob.contains("EXPADDRX"), "{blob}");
    assert!(blob.contains("EXPADDRS"), "{blob}");
    assert!(
        blob.contains("RATE_LIMITED") || blob.contains("3"),
        "{blob}"
    );
}

#[test]
fn frame_ceiling_skew_is_reported() {
    let t = SpecTree::new("ceiling");
    write_all(&t);
    t.write(
        "code/protocol.rs",
        &PROTOCOL_SRC.replace(
            "MAX_FRAME_LEN: u32 = 16 << 20",
            "MAX_FRAME_LEN: u32 = 8 << 20",
        ),
    );
    let lints = t.lints();
    assert_eq!(lints.len(), 1, "{lints:#?}");
    assert!(lints[0].contains("frame"), "{lints:#?}");
}

#[test]
fn missing_doc_anchor_is_itself_a_finding() {
    let t = SpecTree::new("anchor");
    write_all(&t);
    t.write(
        "docs/snapshot.md",
        &SNAPSHOT_DOC.replace("The current version for both envelopes is **2**.", ""),
    );
    let lints = t.lints();
    assert!(
        !lints.is_empty(),
        "a vanished anchor must not pass silently"
    );
}

// ---- the workspace gate ---------------------------------------------

/// Run the real linter over the real tree: zero deny findings. This is
/// the acceptance criterion wired into tier-1 `cargo test`.
#[test]
fn workspace_has_no_deny_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let policy = expanse_check::default_policy();
    let analysis = expanse_check::run_checks(&root, &policy).unwrap();
    let deny: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(deny, Vec::<String>::new());
}
