//! A scratch-directory helper for the store's tests (the workspace has
//! no tempfile dependency by design). Unique per process × counter,
//! removed on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely-named directory under the system temp dir, deleted when
/// dropped.
#[derive(Debug)]
pub(crate) struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `<tmp>/cbs-store-<label>-<pid>-<n>`.
    pub(crate) fn new(label: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cbs-store-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test dir");
        Self { path }
    }

    /// The directory path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
