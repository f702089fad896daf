//! Result output: markdown to stdout, CSV into `results/`.

use simcore::Table;
use std::path::PathBuf;

/// Directory experiment CSVs are written to: `REPRO_RESULTS_DIR` if set,
/// else `results/` under the working directory (the workspace root under
/// `cargo run`).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("REPRO_RESULTS_DIR") {
        return PathBuf::from(d);
    }
    std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join("results")
}

/// Print the table as markdown and persist it as `results/<slug>.csv`.
pub fn emit(table: &Table, slug: &str) {
    print!("{}", table.to_markdown());
    let path = results_dir().join(format!("{slug}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[wrote {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_env_override() {
        std::env::set_var("REPRO_RESULTS_DIR", "/tmp/repro-test-results");
        assert_eq!(results_dir(), PathBuf::from("/tmp/repro-test-results"));
        std::env::remove_var("REPRO_RESULTS_DIR");
    }
}
