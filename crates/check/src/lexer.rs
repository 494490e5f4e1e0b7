//! Token/line-level lexing of Rust source, in the style of rustc's `tidy`.
//!
//! The linter deliberately avoids a full parser (no external deps, vendored
//! offline constraint). Instead each file is split into lines where string
//! and char literal *contents* and comments are blanked out with spaces so
//! that byte columns still line up. All downstream lints operate on this
//! sanitized view, so `".lock("` inside a string or a doc comment never
//! trips a lint.

/// One physical source line after lexing.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comments and literal contents replaced by spaces.
    /// String/char delimiters are kept so tokens never merge across them.
    pub code: String,
}

/// A lexed source file: sanitized lines plus `#[cfg(test)]` region spans.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub lines: Vec<Line>,
    /// Inclusive (start, end) 0-based line ranges covered by `#[cfg(test)]`.
    test_regions: Vec<(usize, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Normal,
    LineComment,
    BlockComment(u32),
    /// Inside `"…"`; the flag is "next char is escaped".
    Str(bool),
    /// Inside `r##"…"##`; the number of `#` marks.
    RawStr(u32),
    /// Inside `'…'`; the flag is "next char is escaped".
    Char(bool),
}

/// Lex `text` into sanitized lines and locate `#[cfg(test)]` regions.
pub fn lex(text: &str) -> SourceFile {
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut mode = Mode::Normal;
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            continue;
        }
        match mode {
            Mode::Normal => match c {
                '/' if chars.peek() == Some(&'/') => {
                    chars.next();
                    cur.code.push_str("  ");
                    mode = Mode::LineComment;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    cur.code.push_str("  ");
                    mode = Mode::BlockComment(1);
                }
                '"' => {
                    cur.code.push('"');
                    mode = Mode::Str(false);
                }
                'r' | 'b' => {
                    // Possible raw-string or byte-string start: r", r#", br", b".
                    // Look ahead without consuming non-matching chars.
                    let mut prefix = String::new();
                    prefix.push(c);
                    // b may be followed by r (byte raw string).
                    if c == 'b' && chars.peek() == Some(&'r') {
                        chars.next();
                        prefix.push('r');
                    }
                    let mut hashes = 0u32;
                    while prefix.ends_with('r') && chars.peek() == Some(&'#') {
                        chars.next();
                        prefix.push('#');
                        hashes += 1;
                    }
                    if chars.peek() == Some(&'"')
                        && (prefix.ends_with('r') || hashes > 0 || prefix == "b")
                    {
                        chars.next();
                        for _ in 0..prefix.len() {
                            cur.code.push(' ');
                        }
                        cur.code.push('"');
                        if prefix == "b" {
                            mode = Mode::Str(false);
                        } else {
                            mode = Mode::RawStr(hashes);
                        }
                    } else {
                        // Not a literal start; emit what we consumed verbatim.
                        cur.code.push_str(&prefix);
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`). A lifetime is a
                    // quote followed by an identifier NOT closed by a quote.
                    let mut look = chars.clone();
                    let is_char_literal = match look.next() {
                        Some('\\') => true,
                        Some(c2) if c2 == '_' || c2.is_alphanumeric() => {
                            // 'a' is a char literal; 'a, 'static are lifetimes.
                            matches!(look.next(), Some('\''))
                        }
                        Some(_) => true, // e.g. '(' … any symbol char literal
                        None => false,
                    };
                    cur.code.push('\'');
                    if is_char_literal {
                        mode = Mode::Char(false);
                    }
                }
                _ => cur.code.push(c),
            },
            Mode::LineComment => cur.code.push(' '),
            Mode::BlockComment(depth) => {
                cur.code.push(' ');
                if c == '/' && chars.peek() == Some(&'*') {
                    chars.next();
                    cur.code.push(' ');
                    mode = Mode::BlockComment(depth + 1);
                } else if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    cur.code.push(' ');
                    mode = if depth == 1 {
                        Mode::Normal
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                }
            }
            Mode::Str(escaped) => {
                if escaped {
                    cur.code.push(' ');
                    mode = Mode::Str(false);
                } else if c == '\\' {
                    cur.code.push(' ');
                    mode = Mode::Str(true);
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Normal;
                } else {
                    cur.code.push(' ');
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    // Check for closing `"####`.
                    let mut look = chars.clone();
                    let mut seen = 0u32;
                    while seen < hashes && look.peek() == Some(&'#') {
                        look.next();
                        seen += 1;
                    }
                    if seen == hashes {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push(' ');
                        }
                        mode = Mode::Normal;
                    } else {
                        cur.code.push(' ');
                    }
                } else {
                    cur.code.push(' ');
                }
            }
            Mode::Char(escaped) => {
                if escaped {
                    cur.code.push(' ');
                    mode = Mode::Char(false);
                } else if c == '\\' {
                    cur.code.push(' ');
                    mode = Mode::Char(true);
                } else if c == '\'' {
                    cur.code.push('\'');
                    mode = Mode::Normal;
                } else {
                    cur.code.push(' ');
                }
            }
        }
    }
    if !cur.code.is_empty() {
        lines.push(cur);
    }

    let test_regions = find_test_regions(&lines);
    SourceFile {
        lines,
        test_regions,
    }
}

impl SourceFile {
    /// True if 0-based line `idx` falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| idx >= s && idx <= e)
    }
}

/// Locate `#[cfg(test)]`-gated items: from each attribute line, brace-match
/// the following item and mark the whole span.
fn find_test_regions(lines: &[Line]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim();
        if code.starts_with("#[cfg(") && code.contains("test") {
            // Brace-match from the attribute line; the first `{` found is the
            // gated item's body (attribute itself has no braces).
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut end = None;
            'outer: for (j, line) in lines.iter().enumerate().skip(i) {
                for c in line.code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // A gated `use` or field ends at `;` before any brace.
                        ';' if !opened => {
                            end = Some(j);
                            break 'outer;
                        }
                        _ => {}
                    }
                    if opened && depth == 0 {
                        end = Some(j);
                        break 'outer;
                    }
                }
            }
            let end = end.unwrap_or(lines.len().saturating_sub(1));
            regions.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let a = "unwrap()"; // unwrap() in comment
let b = x.unwrap();"#;
        let f = lex(src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_and_bytes() {
        let src = "let a = r#\"panic!(\"x\")\"#; let b = b\"panic!\"; let r = br##\"y\"##;";
        let f = lex(src);
        assert!(!f.lines[0].code.contains("panic"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x'; let d = q.unwrap();";
        let f = lex(src);
        assert!(f.lines[0].code.contains("fn f<'a>"));
        assert!(f.lines[1].code.contains(".unwrap()"));
        assert!(!f.lines[1].code.contains("'x'"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let f = lex(src);
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(!f.lines[0].code.contains("outer"));
    }

    #[test]
    fn test_regions_are_found() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let f = lex(src);
        assert!(!f.in_test_region(0));
        assert!(f.in_test_region(1));
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(5));
    }
}
