//! Human and machine-readable output: a `file:line: [lint]` listing plus
//! `CHECK_report.json` (hand-rolled JSON; the linter keeps the
//! workspace's no-external-deps constraint and vendored serde is not worth
//! wiring in for one flat document).

use crate::Analysis;
use std::collections::BTreeMap;

impl Analysis {
    pub fn per_lint(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.lint).or_insert(0) += 1;
        }
        map
    }

    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        if !self.findings.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "expanse-check: {} files scanned, {} findings\n",
            self.files_scanned,
            self.findings.len(),
        ));
        out
    }

    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"deny\": {},\n", self.findings.len()));
        out.push_str("  \"per_lint\": {");
        let per_lint = self.per_lint();
        let mut first = true;
        for (lint, n) in &per_lint {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{lint}\": {n}"));
        }
        out.push_str("},\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {} }}{}\n",
                json_str(f.lint),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_shapes() {
        let f = Finding::at_line(
            "lock-io",
            "a.rs",
            2,
            "`conn.write(` under a guard".to_string(),
        );
        let report = Analysis {
            findings: vec![f],
            files_scanned: 2,
        };
        let json = report.json();
        assert!(json.contains("\"schema\": 3"));
        assert!(json.contains("\"deny\": 1"));
        assert!(json.contains("\"per_lint\": {\"lock-io\": 1}"));
        let human = report.human();
        assert!(human.contains("a.rs:3: [lock-io]"));
    }
}
