//! Where a run writes its durable directories, and the bound on what
//! finished runs leave behind.
//!
//! Each run gets `.run/<seq>-<kind>/` under the package, `seq` one past
//! the highest there. A run deletes nothing while it measures, and leaves
//! its directory behind: on a filesystem mounted with `discard`, deleting
//! a run's files slowed the file operations of the next 30 s or so (see
//! the README). Before it starts, a run deletes the oldest runs'
//! directories while they hold more than [`KEEP_BYTES`] together, and
//! waits for the filesystem to commit the deletion.

use crate::measure::dir_bytes;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};

/// What finished runs may leave under `.run/`. A full measurement series
/// (a few dozen runs of each workload) stays below it, so no run of such
/// a series deletes anything.
pub const KEEP_BYTES: u64 = 4 << 30;

extern "C" {
    fn syncfs(fd: i32) -> i32;
}

/// The finished runs under `root`, oldest first.
fn runs(root: &Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq = name.split_once('-')?.0.parse().ok()?;
            Some((seq, e.path()))
        })
        .collect();
    out.sort();
    out
}

/// Delete the oldest runs' directories under `root` while all of them
/// hold more than `keep` bytes, then make a new directory for a run of
/// `kind`. Returns it and the bytes deleted.
pub fn make(root: &Path, kind: &str, keep: u64) -> Result<(PathBuf, u64), String> {
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let old = runs(root);
    let mut sizes: Vec<u64> = old.iter().map(|(_, p)| dir_bytes(p)).collect();
    let mut total: u64 = sizes.iter().sum();
    let mut deleted = 0;
    for ((_, path), size) in old.iter().zip(&mut sizes) {
        if total <= keep {
            break;
        }
        std::fs::remove_dir_all(path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        total -= *size;
        deleted += std::mem::take(size);
    }
    if deleted > 0 {
        // commit the deletion (and its discards) before anything is timed
        let handle =
            std::fs::File::open(root).map_err(|e| format!("open {}: {e}", root.display()))?;
        // SAFETY: `handle` owns an open descriptor for the call's duration.
        if unsafe { syncfs(handle.as_raw_fd()) } != 0 {
            return Err(format!("syncfs: {}", std::io::Error::last_os_error()));
        }
    }
    // a run started alongside may take the same number: try the next
    let mut seq = old.last().map_or(0, |(s, _)| s + 1);
    loop {
        let dir = root.join(format!("{seq:06}-{kind}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok((dir, deleted)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => seq += 1,
            Err(e) => return Err(format!("create {}: {e}", dir.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_runs_go_first_and_numbers_climb() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".out/rundir-test");
        let _ = std::fs::remove_dir_all(&root);
        let (a, _) = make(&root, "x", u64::MAX).unwrap();
        std::fs::write(a.join("f"), [0u8; 100]).unwrap();
        let (b, deleted) = make(&root, "y", u64::MAX).unwrap();
        assert_eq!(deleted, 0);
        std::fs::write(b.join("f"), [0u8; 50]).unwrap();
        // over a bound of 60 bytes, only the oldest run must go
        let (c, deleted) = make(&root, "x", 60).unwrap();
        assert_eq!(deleted, 100);
        assert!(!a.exists() && b.exists() && c.exists());
        let names: Vec<String> = runs(&root)
            .iter()
            .map(|(_, p)| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["000001-y", "000002-x"]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
