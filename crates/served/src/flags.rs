//! A tiny `--flag value` argument parser (no external crates in the
//! build image, and the two binaries need exactly this much).
//!
//! Grammar: `--name value` pairs for the names listed as taking a
//! value, repeatable; names listed as boolean take no value; any other
//! `--name` is an error, so a misspelled flag never passes silently;
//! everything else is positional. `--` ends flag parsing.

use std::str::FromStr;

/// Parsed command-line flags. See the module docs for the
/// grammar.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    bools: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    /// Parse `args` (program name already stripped); `valued` names the
    /// flags that take a value and `boolean` the ones that take none.
    pub fn parse(args: &[String], valued: &[&str], boolean: &[&str]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(tok) = it.next() {
            if tok == "--" {
                f.positional.extend(it.cloned());
                break;
            }
            if let Some(name) = tok.strip_prefix("--") {
                if boolean.contains(&name) {
                    f.bools.push(name.to_string());
                } else if valued.contains(&name) {
                    let Some(val) = it.next() else {
                        return Err(format!("--{name} needs a value"));
                    };
                    f.pairs.push((name.to_string(), val.clone()));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                f.positional.push(tok.clone());
            }
        }
        Ok(f)
    }

    /// The last value given for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `name`, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Was the boolean flag `name` given?
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|n| n == name)
    }

    /// Parse `name`'s value as `T`, or fall back to `default` when the
    /// flag is absent.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Parse `name`'s value as `T`, if given.
    pub fn parsed_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// The positional (non-flag) arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pairs_bools_and_positionals() {
        let f = Flags::parse(
            &args(&[
                "--listen",
                "tcp:127.0.0.1:0",
                "--listen",
                "uds:/tmp/a",
                "--no-cache",
                "status",
                "--days",
                "3",
            ]),
            &["listen", "days"],
            &["no-cache"],
        )
        .unwrap();
        assert_eq!(f.get_all("listen"), vec!["tcp:127.0.0.1:0", "uds:/tmp/a"]);
        assert!(f.has("no-cache"));
        assert!(!f.has("cache"));
        assert_eq!(f.positional(), ["status"]);
        assert_eq!(f.parsed::<u16>("days", 0).unwrap(), 3);
        assert_eq!(f.parsed::<u16>("missing", 7).unwrap(), 7);
        assert!(f.parsed::<u16>("listen", 0).is_err());
        assert_eq!(f.parsed_opt::<u64>("days").unwrap(), Some(3));
        assert_eq!(f.parsed_opt::<u64>("missing").unwrap(), None);
    }

    #[test]
    fn missing_value_and_double_dash() {
        assert!(Flags::parse(&args(&["--listen"]), &["listen"], &[]).is_err());
        let f = Flags::parse(&args(&["--", "--listen", "x"]), &[], &[]).unwrap();
        assert_eq!(f.positional(), ["--listen", "x"]);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // A misspelled valued flag must not swallow the next token.
        let err = Flags::parse(
            &args(&["--qsp", "100", "--simulate"]),
            &["qps"],
            &["simulate"],
        )
        .unwrap_err();
        assert_eq!(err, "unknown flag --qsp");
        // Nor may a boolean one pass as a valued one.
        let err = Flags::parse(&args(&["--no-cahce", "status"]), &[], &["no-cache"]).unwrap_err();
        assert_eq!(err, "unknown flag --no-cahce");
    }
}
