//! Minimal `--key value` option parsing for the CLI (kept free of
//! external dependencies).

use std::collections::HashMap;

/// Parsed options.
#[derive(Debug, Default, Clone)]
pub struct Opts {
    values: HashMap<String, String>,
}

impl Opts {
    /// Parse a token list of `--key value` pairs (bare `--flag` maps to
    /// "true").
    pub fn parse(tokens: &[String]) -> Self {
        let mut values = HashMap::new();
        let mut key: Option<String> = None;
        for tok in tokens {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some(k) = key.take() {
                    values.insert(k, "true".into());
                }
                key = Some(stripped.to_string());
            } else if let Some(k) = key.take() {
                values.insert(k, tok.clone());
            }
        }
        if let Some(k) = key {
            values.insert(k, "true".into());
        }
        Opts { values }
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, crate::CliError> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| crate::CliError::Usage(format!("missing required option --{key}")))
    }

    /// Optional parsed value with default: `default` when absent, the
    /// same usage error as [`Opts::get_opt`] when present but
    /// unparseable.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, crate::CliError> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Optional parsed value: `None` when absent, an error when present
    /// but unparseable (a typo must not silently drop the option).
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, crate::CliError> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| crate::CliError::Usage(format!("invalid value `{v}` for --{key}"))),
        }
    }

    /// Optional string with default.
    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map(|s| s.as_str()).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn require_present_and_missing() {
        let o = parse("--input foo.txt");
        assert_eq!(o.require("input").unwrap(), "foo.txt");
        assert!(o.require("output").is_err());
    }

    #[test]
    fn typed_defaults() {
        let o = parse("--alpha 0.25 --dim 32 --ann");
        assert_eq!(o.get("alpha", 0.1).unwrap(), 0.25);
        assert_eq!(o.get("dim", 128usize).unwrap(), 32);
        assert_eq!(o.get("walks", 10usize).unwrap(), 10);
        assert!(o.get("ann", false).unwrap(), "a bare flag reads as true");
    }

    #[test]
    fn get_rejects_a_value_that_does_not_parse() {
        let err = parse("--dim 1O").get("dim", 128usize).unwrap_err();
        assert!(matches!(err, crate::CliError::Usage(_)), "{err}");
        assert!(
            err.to_string().contains("invalid value `1O` for --dim"),
            "{err}"
        );
    }

    #[test]
    fn string_default() {
        let o = parse("");
        assert_eq!(o.get_str("out-dir", "."), ".");
    }

    #[test]
    fn get_opt_absent_present_and_typo() {
        let o = parse("--query 42");
        assert_eq!(o.get_opt::<u32>("query").unwrap(), Some(42));
        assert_eq!(o.get_opt::<u32>("missing").unwrap(), None);
        let err = parse("--query 0x1f").get_opt::<u32>("query").unwrap_err();
        assert!(err.to_string().contains("--query"), "{err}");
    }
}
