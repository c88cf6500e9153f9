//! A scratch directory that cleans up after itself.
//!
//! Commands that keep working files for the length of one invocation
//! (`btfluid chaos` and `btfluid repro` of a chaos bundle, the self-check
//! oracle) and every test that touches the file system take one
//! [`ScratchDir`]: a fresh directory under the temp dir, removed with
//! everything in it when the guard drops, on success, error or unwind.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory `$TMPDIR/btfluid-<tag>-<pid>-<n>`, unique to this
/// process and call, removed recursively on drop. Derefs to its [`Path`].
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory (clearing a stale one a recycled pid left).
    ///
    /// # Errors
    /// Propagates the directory creation failure.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("btfluid-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_guard_owns_a_fresh_directory_removed_on_drop() {
        let a = ScratchDir::new("scratch-test").unwrap();
        let b = ScratchDir::new("scratch-test").unwrap();
        assert_ne!(*a, *b);
        std::fs::create_dir_all(a.join("nested")).unwrap();
        std::fs::write(a.join("nested/file"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropped guard left {}", kept.display());
        assert!(b.is_dir());
    }
}
