//! Flag lookup for the bench bins that take options (`chaos`, `fleet`).
//! Wall time is judged by the repository benchmark alone
//! (`BENCHMARK.json`); the host-independent values the bins check live in
//! `cargo test`.

/// The value following `name` in `args`, if both are present.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_reads_the_following_value() {
        let args: Vec<String> = ["--n", "64", "--json"].map(String::from).into();
        assert_eq!(flag(&args, "--n").as_deref(), Some("64"));
        assert_eq!(flag(&args, "--json"), None);
        assert_eq!(flag(&args, "--seed"), None);
    }
}
