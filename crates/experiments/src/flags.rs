//! The experiment binaries' one reader of valued command-line flags.

use std::str::FromStr;

/// The value of `flag` in `args`, given as `--flag=V` or as `--flag V`.
///
/// `Ok(None)` when the flag is absent; a flag given more than once takes
/// its last value. Errs, naming the flag, when a value is missing (the flag
/// ends the arguments, or another `--` switch follows it) or does not parse
/// as a `T`.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let mut value = None;
    for (i, arg) in args.iter().enumerate() {
        let raw = match arg.strip_prefix(flag) {
            Some("") => match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => next.as_str(),
                _ => return Err(format!("{flag} needs a value")),
            },
            Some(rest) => match rest.strip_prefix('=') {
                Some(raw) => raw,
                None => continue,
            },
            None => continue,
        };
        let parsed = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for {flag}"))?;
        value = Some(parsed);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn reads_both_forms_and_ignores_other_arguments() {
        let both = args(&["--scale=10000", "--telemetry", "--waves", "3"]);
        assert_eq!(flag_value::<usize>(&both, "--scale"), Ok(Some(10_000)));
        assert_eq!(flag_value::<usize>(&both, "--waves"), Ok(Some(3)));
        assert_eq!(flag_value::<u64>(&both, "--seed"), Ok(None));
        // A flag that only shares a prefix is another flag.
        let longer = args(&["--scale-factor=2"]);
        assert_eq!(flag_value::<usize>(&longer, "--scale"), Ok(None));
        let twice = args(&["--seed=1", "--seed", "2"]);
        assert_eq!(
            flag_value::<u64>(&twice, "--seed"),
            Ok(Some(2)),
            "last wins"
        );
    }

    #[test]
    fn a_missing_or_unparseable_value_is_an_error() {
        for (list, message) in [
            (&["--scale=10k"][..], "invalid value `10k` for --scale"),
            (&["--scale="][..], "invalid value `` for --scale"),
            (&["--scale", "ten"][..], "invalid value `ten` for --scale"),
            (&["--scale"][..], "--scale needs a value"),
            (&["--scale", "--waves=3"][..], "--scale needs a value"),
            (
                &["--scale=5", "--scale=x"][..],
                "invalid value `x` for --scale",
            ),
        ] {
            assert_eq!(
                flag_value::<usize>(&args(list), "--scale"),
                Err(message.to_string()),
                "{list:?}"
            );
        }
    }
}
