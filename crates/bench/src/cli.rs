//! Flag parsing shared by the `exp` subcommands.
//!
//! Kept in the library (rather than the binary) so the parsing rules are
//! unit-testable — a measurement pipeline must not silently reinterpret
//! its own flags.

use localavg_sim::engine::resolve_threads;

/// Returns the value following `--flag`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses an integer-valued `--flag`, falling back to `default`.
///
/// # Errors
///
/// Returns a human-readable message when the value is present but not an
/// integer (the binary prints it and exits 2).
pub fn parse_usize(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects an integer, got `{v}`")),
    }
}

/// Parses a comma-separated `--flag a,b,c` list, if present.
pub fn flag_list(args: &[String], flag: &str) -> Option<Vec<String>> {
    flag_value(args, flag).map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
}

/// Parses one graph-size token. Large instances make plain digit strings
/// unreadable, so three equivalent forms are accepted:
///
/// * plain integers — `4096`
/// * underscore digit grouping — `10_000_000`
/// * scientific notation — `1e7`, `2.5e6` — as long as the value is an
///   exact nonnegative integer (`2.5e0` is rejected, not rounded)
///
/// # Errors
///
/// Returns a human-readable message for anything else, including values
/// that overflow `usize`.
pub fn parse_size(s: &str) -> Result<usize, String> {
    let err = || format!("`{s}` is not a size (try `4096`, `10_000_000`, or `1e7`)");
    if s.starts_with('_') || s.ends_with('_') {
        return Err(err());
    }
    let t: String = s.chars().filter(|&c| c != '_').collect();
    let (mant, exp) = match t.split_once(['e', 'E']) {
        Some((m, x)) => (m, x.parse::<u32>().map_err(|_| err())?),
        None => (t.as_str(), 0),
    };
    // A fractional mantissa (`2.5e6`) just shifts digits into the
    // exponent; the exponent must cover every fractional digit.
    let (digits, scale) = match mant.split_once('.') {
        Some((i, f)) => {
            let shift = u32::try_from(f.len()).map_err(|_| err())?;
            if shift > exp {
                return Err(err());
            }
            (format!("{i}{f}"), exp - shift)
        }
        None => (mant.to_string(), exp),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(err());
    }
    let base: usize = digits.parse().map_err(|_| err())?;
    let pow = 10usize.checked_pow(scale).ok_or_else(err)?;
    base.checked_mul(pow).ok_or_else(err)
}

/// Parses a comma-separated `--sizes 1000,1e6,10_000_000` list through
/// [`parse_size`], if the flag is present.
///
/// # Errors
///
/// Returns the first offending token's [`parse_size`] message, prefixed
/// with the flag name.
pub fn parse_size_list(args: &[String], flag: &str) -> Result<Option<Vec<usize>>, String> {
    match flag_list(args, flag) {
        None => Ok(None),
        Some(items) => items
            .iter()
            .map(|s| parse_size(s).map_err(|e| format!("{flag}: {e}")))
            .collect::<Result<Vec<usize>, String>>()
            .map(Some),
    }
}

/// Returns the values of *every* occurrence of a repeatable `--flag`
/// (e.g. `--param a:k=v --param b:k=w`), in argument order.
pub fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parses a `--policy full|completions|none` value into a
/// [`localavg_core::algo::TranscriptPolicy`] (flag absent = `Full`).
///
/// # Errors
///
/// Returns a human-readable message naming the accepted labels.
pub fn parse_policy(args: &[String]) -> Result<localavg_core::algo::TranscriptPolicy, String> {
    use localavg_core::algo::TranscriptPolicy;
    match flag_value(args, "--policy") {
        None => Ok(TranscriptPolicy::Full),
        Some(v) => TranscriptPolicy::parse(&v)
            .ok_or_else(|| format!("--policy expects `full`, `completions`, or `none`, got `{v}`")),
    }
}

/// Parses the `--threads` flag with the engine's `0 = all available
/// cores` convention ([`localavg_sim::engine::resolve_threads`]).
///
/// The default (flag absent) is also "auto": sweeps want every core
/// unless told otherwise.
///
/// # Errors
///
/// Same conditions as [`parse_usize`].
pub fn parse_threads(args: &[String]) -> Result<usize, String> {
    Ok(resolve_threads(parse_usize(args, "--threads", 0)?))
}

/// Validates a subcommand's flags up front: every argument must be a
/// known value-taking flag followed by a value, or a known bare flag.
/// In a measurement pipeline a silently-dropped typo (`--size` for
/// `--sizes`) would emit results for a different grid than the user
/// asked for.
///
/// # Errors
///
/// Returns a human-readable message naming the offending argument.
pub fn validate_flags(args: &[String], valued: &[&str], bare: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if bare.contains(&a) {
            i += 1;
        } else if valued.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("{a} expects a value")),
            }
        } else {
            return Err(format!("unknown option `{a}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_value_and_list() {
        let a = args(&["--out", "x.json", "--sizes", "8, 16,32"]);
        assert_eq!(flag_value(&a, "--out").as_deref(), Some("x.json"));
        assert_eq!(flag_value(&a, "--missing"), None);
        assert_eq!(flag_list(&a, "--sizes").unwrap(), vec!["8", "16", "32"]);
        assert_eq!(flag_list(&a, "--missing"), None);
    }

    #[test]
    fn parse_size_accepts_plain_underscore_and_scientific_forms() {
        assert_eq!(parse_size("4096"), Ok(4096));
        assert_eq!(parse_size("10_000_000"), Ok(10_000_000));
        assert_eq!(parse_size("1_000"), Ok(1000));
        assert_eq!(parse_size("1e6"), Ok(1_000_000));
        assert_eq!(parse_size("1E7"), Ok(10_000_000));
        assert_eq!(parse_size("2.5e6"), Ok(2_500_000));
        assert_eq!(parse_size("1.25e4"), Ok(12_500));
        assert_eq!(parse_size("2.50e2"), Ok(250));
        assert_eq!(parse_size("0"), Ok(0));
        assert_eq!(parse_size("0e9"), Ok(0));
    }

    #[test]
    fn parse_size_rejects_non_integers_and_garbage() {
        for bad in [
            "", "x", "-5", "1.5", "2.5e0", "1.25e1", "e6", "1e", "1e1.5", "_100", "100_", "1e-3",
            "0x10", "ten",
        ] {
            assert!(parse_size(bad).is_err(), "`{bad}` should be rejected");
        }
        // usize overflow is an error, not a wrap.
        assert!(parse_size("1e30").is_err());
        assert!(parse_size("99999999999999999999999999").is_err());
    }

    #[test]
    fn parse_size_list_maps_every_token() {
        let a = args(&["--sizes", "1000, 1e6 ,10_000_000"]);
        assert_eq!(
            parse_size_list(&a, "--sizes"),
            Ok(Some(vec![1000, 1_000_000, 10_000_000]))
        );
        assert_eq!(parse_size_list(&a, "--missing"), Ok(None));
        let bad = args(&["--sizes", "1000,huge"]);
        let e = parse_size_list(&bad, "--sizes").unwrap_err();
        assert!(e.contains("--sizes") && e.contains("huge"), "{e}");
    }

    #[test]
    fn parse_usize_default_and_error() {
        let a = args(&["--seeds", "5", "--bad", "x"]);
        assert_eq!(parse_usize(&a, "--seeds", 1), Ok(5));
        assert_eq!(parse_usize(&a, "--missing", 7), Ok(7));
        assert!(parse_usize(&a, "--bad", 0).is_err());
    }

    #[test]
    fn threads_zero_means_available_cores() {
        // `--threads 0` must behave like `Exec::Parallel { threads: 0 }`:
        // every available core.
        let a = args(&["--threads", "0"]);
        let t = parse_threads(&a).unwrap();
        assert!(t >= 1);
        assert_eq!(
            t,
            std::thread::available_parallelism().map_or(1, |p| p.get())
        );
        assert_eq!(resolve_threads(0), t);
    }

    #[test]
    fn threads_explicit_value_is_literal() {
        let a = args(&["--threads", "3"]);
        assert_eq!(parse_threads(&a).unwrap(), 3);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn threads_absent_defaults_to_auto() {
        let a = args(&[]);
        assert_eq!(parse_threads(&a).unwrap(), resolve_threads(0));
    }

    #[test]
    fn threads_garbage_is_an_error() {
        let a = args(&["--threads", "two"]);
        assert!(parse_threads(&a).is_err());
    }

    #[test]
    fn flag_values_collects_every_occurrence() {
        let a = args(&["--param", "a:k=1", "--out", "x", "--param", "b:k=2"]);
        assert_eq!(flag_values(&a, "--param"), vec!["a:k=1", "b:k=2"]);
        assert!(flag_values(&a, "--missing").is_empty());
    }

    #[test]
    fn parse_policy_labels() {
        use localavg_core::algo::TranscriptPolicy;
        assert_eq!(parse_policy(&args(&[])), Ok(TranscriptPolicy::Full));
        assert_eq!(
            parse_policy(&args(&["--policy", "none"])),
            Ok(TranscriptPolicy::None)
        );
        assert_eq!(
            parse_policy(&args(&["--policy", "completions"])),
            Ok(TranscriptPolicy::CompletionsOnly)
        );
        assert!(parse_policy(&args(&["--policy", "fast"])).is_err());
    }

    #[test]
    fn validate_flags_accepts_known_shapes() {
        let a = args(&["--out", "x.json", "--list-generators", "--sizes", "8,16"]);
        assert_eq!(
            validate_flags(&a, &["--out", "--sizes"], &["--list-generators"]),
            Ok(())
        );
    }

    #[test]
    fn validate_flags_rejects_typos_and_missing_values() {
        let valued = ["--threads", "--out"];
        assert!(validate_flags(&args(&["--thread", "2"]), &valued, &[])
            .is_err_and(|e| e.contains("--thread")));
        assert!(validate_flags(&args(&["--out"]), &valued, &[])
            .is_err_and(|e| e.contains("expects a value")));
        assert!(validate_flags(&args(&["--out", "--threads"]), &valued, &[]).is_err());
    }
}
