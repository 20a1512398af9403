//! Helpers shared by the root tests that scan the workspace's sources.

use std::path::{Path, PathBuf};

/// Append every `.rs` file under `dir`, recursively, to `out`.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("list a source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}
