//! A tiny `--key value` argument parser for the experiment binaries.

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an explicit token stream.
    pub fn parse(tokens: impl Iterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut key: Option<String> = None;
        for tok in tokens {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some(k) = key.take() {
                    values.insert(k, "true".to_string()); // bare flag
                }
                key = Some(stripped.to_string());
            } else if let Some(k) = key.take() {
                values.insert(k, tok);
            }
        }
        if let Some(k) = key {
            values.insert(k, "true".to_string());
        }
        Args { values }
    }

    /// Fetch a value parsed as `T`, or the default when absent. A value
    /// that does not parse prints `invalid value … for --key` and exits
    /// 2, like the `glodyne` CLI.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// [`Args::get`] with the parse failure returned instead of fatal.
    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.values.get(key).map(|v| v == "true").unwrap_or(false)
    }
}

/// Common experiment options shared by every binary.
#[derive(Debug, Clone, Copy)]
pub struct Common {
    /// Dataset scale factor (1.0 ≈ hundreds of nodes).
    pub scale: f64,
    /// Independent runs per cell (paper: 20).
    pub runs: usize,
    /// Embedding dimensionality (paper: 128).
    pub dim: usize,
    /// Base seed.
    pub seed: u64,
}

impl Common {
    /// Extract the common options with laptop-scale defaults.
    pub fn from(args: &Args) -> Self {
        Common {
            scale: args.get("scale", 0.25),
            runs: args.get("runs", 3),
            dim: args.get("dim", 64),
            seed: args.get("seed", 42),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_values() {
        let a = parse("--scale 0.5 --runs 7");
        assert_eq!(a.get("scale", 0.0), 0.5);
        assert_eq!(a.get("runs", 0usize), 7);
        assert_eq!(a.get("missing", 3usize), 3);
    }

    #[test]
    fn unparseable_values_are_errors() {
        let a = parse("--runs 1O --dim 64");
        assert_eq!(
            a.try_get("runs", 3usize),
            Err("invalid value `1O` for --runs".into())
        );
        assert_eq!(a.try_get("dim", 128usize), Ok(64));
        assert_eq!(a.try_get("seed", 42u64), Ok(42));
    }

    #[test]
    fn parses_bare_flags() {
        let a = parse("--fast --runs 2");
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("--runs 2 --verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn common_defaults() {
        let c = Common::from(&parse(""));
        assert_eq!(c.runs, 3);
        assert_eq!(c.dim, 64);
    }
}
