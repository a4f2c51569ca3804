//! Bakes a content hash of the library and benchmark sources into the
//! binary (`MEIBENCH_SOURCE_HASH`), so every result names the code it
//! measured even in a checkout that is not a git repository.

use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

fn main() {
    let mut files = Vec::new();
    for dir in ["../crates", "../vendor", "src"] {
        collect(Path::new(dir), &mut files);
        println!("cargo:rerun-if-changed={dir}");
    }
    files.push(PathBuf::from("../Cargo.toml"));
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    // FNV-1a 64 over (path, contents) pairs in sorted path order.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=MEIBENCH_SOURCE_HASH=fnv1a64:{h:016x}");
    println!("cargo:rerun-if-changed=../Cargo.toml");
}
