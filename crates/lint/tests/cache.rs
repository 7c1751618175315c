//! Incremental cache semantics: a warm run reproduces the cold report
//! bit-for-bit, edits invalidate exactly the touched file, and any
//! damage to the cache file degrades to a cold scan — never to stale
//! facts or a panic.

use std::path::PathBuf;

use mfpa_lint::cache::{lint_files_cached, CacheStats};
use mfpa_lint::{lint_files, LintOptions, SourceFile};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfpa-lint-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir temp");
    dir.join("scan.cache")
}

fn ws() -> Vec<SourceFile> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    mfpa_lint::collect_workspace(&root).expect("fixture workspace readable")
}

#[test]
fn warm_run_reproduces_the_cold_report() {
    let files = ws();
    let path = tmp("warm");
    let uncached = lint_files(&files, LintOptions::default());

    let (cold, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, 0, "first run has nothing to reuse");
    assert_eq!(stats.rescanned, files.len());
    assert_eq!(cold.to_json().to_string(), uncached.to_json().to_string());

    let (warm, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(
        stats,
        CacheStats {
            reused: files.len(),
            rescanned: 0
        }
    );
    assert_eq!(warm.to_json().to_string(), uncached.to_json().to_string());
}

#[test]
fn an_edit_invalidates_exactly_the_touched_file() {
    let mut files = ws();
    let path = tmp("edit");
    let _ = lint_files_cached(&files, LintOptions::default(), &path);

    let victim = files
        .iter_mut()
        .find(|f| f.label.ends_with("sanitize.rs"))
        .expect("fixture has sanitize.rs");
    victim.text.push_str("\nfn appended() {}\n");

    let (report, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.rescanned, 1, "only the edited file rescans");
    assert_eq!(stats.reused, files.len() - 1);
    assert_eq!(
        report.to_json().to_string(),
        lint_files(&files, LintOptions::default())
            .to_json()
            .to_string(),
        "warm report must match a from-scratch scan of the edited tree"
    );
}

#[test]
fn corrupt_or_truncated_cache_degrades_to_cold() {
    let files = ws();
    let path = tmp("corrupt");
    let _ = lint_files_cached(&files, LintOptions::default(), &path);
    let good = std::fs::read(&path).expect("cache written");

    // Flip one byte in the middle: the seal fails, the run goes cold.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(&path, &bad).expect("write corrupt cache");
    let (report, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, 0, "corrupt cache must not be trusted");
    assert_eq!(
        report.to_json().to_string(),
        lint_files(&files, LintOptions::default())
            .to_json()
            .to_string()
    );

    // Truncation likewise.
    std::fs::write(&path, &good[..good.len() / 3]).expect("truncate");
    let (_, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, 0, "truncated cache must not be trusted");

    // And the run heals the file: the next scan is warm again.
    let (_, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, files.len());
}

#[test]
fn a_cache_sealed_with_the_byte_serial_fnv_footer_degrades_to_cold() {
    let files = ws();
    let path = tmp("fnv-footer");
    let _ = lint_files_cached(&files, LintOptions::default(), &path);
    let good = std::fs::read(&path).expect("cache written");
    // The same payload under the footer of the older seal format.
    let mut old = mfpa_bytes::unseal(&good).expect("seal verifies").to_vec();
    let footer = mfpa_bytes::fnv1a64(&old);
    old.extend_from_slice(&footer.to_le_bytes());
    std::fs::write(&path, &old).expect("write old-format cache");
    let (_, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, 0, "an FNV-sealed cache must not be trusted");
}

#[test]
fn missing_cache_path_is_a_cold_run_not_an_error() {
    let files = ws();
    let path = tmp("missing");
    let (report, stats) = lint_files_cached(&files, LintOptions::default(), &path);
    assert_eq!(stats.reused, 0);
    assert_eq!(
        report.to_json().to_string(),
        lint_files(&files, LintOptions::default())
            .to_json()
            .to_string()
    );
}
