//! The paper's results are this repository's product: every entry of the
//! results registry is rendered and compared byte for byte with its
//! committed `results/<slug>.csv`, host-timed columns masked, and no gate
//! check may fail.

use bench::results::{Entry, REGISTRY};
use simcore::par::{host_threads, map_indexed};
use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The cells of one CSV line, raw: a quoted cell keeps its quotes.
fn raw_cells(line: &str) -> Vec<&str> {
    let (mut cells, mut start, mut quoted) = (Vec::new(), 0, false);
    for (i, c) in line.char_indices() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => {
                cells.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    cells.push(&line[start..]);
    cells
}

/// `csv`'s lines, each with its newline, the cells of the entry's
/// host-timed columns blanked; every other byte is kept.
fn masked_lines(entry: &Entry, csv: &str) -> Vec<String> {
    let header = raw_cells(csv.lines().next().unwrap_or(""));
    let masked: Vec<usize> = entry
        .host_timed
        .iter()
        .map(|name| {
            header
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("{}: no host-timed column `{name}`", entry.slug))
        })
        .collect();
    csv.split_inclusive('\n')
        .map(|line| {
            if masked.is_empty() {
                return line.to_string();
            }
            let (body, newline) = line.split_at(line.trim_end_matches('\n').len());
            let mut cells = raw_cells(body);
            for &i in &masked {
                if let Some(c) = cells.get_mut(i) {
                    *c = "";
                }
            }
            cells.join(",") + newline
        })
        .collect()
}

#[test]
fn every_entry_matches_its_committed_csv_and_passes_its_gates() {
    let rendered = map_indexed(REGISTRY.len(), host_threads(), |i| (REGISTRY[i].render)());
    let mut problems = Vec::new();
    for (entry, r) in REGISTRY.iter().zip(&rendered) {
        for f in &r.failures {
            problems.push(format!("{}: gate check failed: {f}", entry.slug));
        }
        let path = results_dir().join(format!("{}.csv", entry.slug));
        let Ok(committed) = std::fs::read_to_string(&path) else {
            problems.push(format!("{}: {} is missing", entry.slug, path.display()));
            continue;
        };
        let want = masked_lines(entry, &committed);
        let got = masked_lines(entry, &r.table.to_csv());
        if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
            problems.push(format!(
                "{}: row {i} differs (row 0 is the header)\n  committed: {:?}\n  rendered:  {:?}",
                entry.slug,
                want.get(i).map_or("<none>", |s| s.as_str()),
                got.get(i).map_or("<none>", |s| s.as_str()),
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn the_registry_names_exactly_the_committed_csvs() {
    let files: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .filter_map(|e| {
            let name = e.expect("a results/ entry").file_name();
            name.to_str()?.strip_suffix(".csv").map(String::from)
        })
        .collect();
    let slugs: Vec<&str> = REGISTRY.iter().map(|e| e.slug).collect();
    let missing: Vec<&&str> = slugs
        .iter()
        .filter(|s| !files.iter().any(|f| f == *s))
        .collect();
    let unregistered: Vec<&String> = files
        .iter()
        .filter(|f| !slugs.contains(&f.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "registered without a results/ CSV: {missing:?}"
    );
    assert!(
        unregistered.is_empty(),
        "results/ CSVs no entry renders: {unregistered:?}"
    );
    assert_eq!(slugs.len(), files.len(), "a slug is registered twice");
}

#[test]
fn only_renders_one_entry_and_an_unknown_slug_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_results"))
        .args(["--only", "nope"])
        .output()
        .expect("run results");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for e in &REGISTRY {
        assert!(stderr.contains(e.slug), "{stderr}");
    }

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results-only");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_results"))
        .args(["--only", "table_gt200"])
        .env("REPRO_RESULTS_DIR", &dir)
        .output()
        .expect("run results");
    assert!(out.status.success(), "{out:?}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("results wrote its directory")
        .map(|e| e.expect("an entry").file_name())
        .collect();
    assert_eq!(written, ["table_gt200.csv"]);
    assert_eq!(
        std::fs::read_to_string(dir.join("table_gt200.csv")).unwrap(),
        std::fs::read_to_string(results_dir().join("table_gt200.csv")).unwrap()
    );
}

#[test]
fn without_an_override_results_writes_under_the_working_directory() {
    let checkout_csv = results_dir().join("table_gt200.csv");
    let mtime = || {
        std::fs::metadata(&checkout_csv)
            .unwrap()
            .modified()
            .unwrap()
    };
    let before = mtime();
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results-cwd");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_results"))
        .args(["--only", "table_gt200"])
        .current_dir(&cwd)
        .env_remove("REPRO_RESULTS_DIR")
        .output()
        .expect("run results");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read_to_string(cwd.join("results/table_gt200.csv")).unwrap(),
        std::fs::read_to_string(&checkout_csv).unwrap()
    );
    assert_eq!(mtime(), before, "the checkout's CSV was rewritten");
}
