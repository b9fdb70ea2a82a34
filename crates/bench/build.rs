//! Fingerprints the workspace's `crates/*/src` sources (every file's
//! relative path and bytes, in path order) into the `SOURCE_FINGERPRINT`
//! compile-time variable, so the run cache can tell artifacts of one build
//! from another's.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};

fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, files);
        } else {
            files.push(path);
        }
    }
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("readable crates directory") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            collect(&src, &mut files);
        }
    }
    files.sort();
    let mut h = DefaultHasher::new();
    for file in &files {
        file.strip_prefix(&crates)
            .expect("under crates/")
            .hash(&mut h);
        std::fs::read(file)
            .expect("readable source file")
            .hash(&mut h);
    }
    println!("cargo:rustc-env=SOURCE_FINGERPRINT={:016x}", h.finish());
}
