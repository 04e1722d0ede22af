//! Workspace-level integration-test and example host for `wormsim`.
//!
//! The real functionality lives in the [`wormsim`] crate; this package only
//! exists so that `examples/` and `tests/` at the repository root have a
//! Cargo target to attach to, and one place for what those tests share.

pub use wormsim as sim;

/// A scratch directory `wormsim-<name>-<pid>` under the system temp
/// directory, removed first if an earlier run left it (not created).
pub fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wormsim-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Compares `actual` against the committed golden `tests/golden/<name>`,
/// or rewrites the golden when `WORMSIM_UPDATE_GOLDEN=1`.
///
/// # Panics
///
/// Panics if the golden is missing or differs from `actual`.
pub fn assert_matches_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("WORMSIM_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir creates");
        std::fs::write(&path, actual).expect("golden writes");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with WORMSIM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "output diverged from the committed golden {name}; if the change \
         is intentional, regenerate with WORMSIM_UPDATE_GOLDEN=1"
    );
}
