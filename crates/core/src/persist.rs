//! Atomic file persistence: write-to-temp, fsync, rename.
//!
//! Every durable artifact in the stack that is written whole — a proof
//! cache log's compaction, trace captures — goes through
//! [`write_atomic`] so that a crash at *any* instant leaves either the
//! previous file intact or the new file complete, never a torn hybrid
//! that parses as valid-but-wrong or bricks a later run with
//! `EXIT_MALFORMED`. (A cache log's appends are written in place
//! instead; its loader drops a torn final group, see `crate::cache`.)
//! The
//! recipe is the classic one: write the full payload to a
//! uniquely-named temporary file *in the same directory* (so the
//! rename cannot cross filesystems), `fsync` it, then `rename(2)` over
//! the destination and best-effort `fsync` the directory to make the
//! rename itself durable.
//!
//! The body of the temp-file write carries the [`WRITE_POINT`] fault
//! point, so the chaos harness can tear or kill a persist mid-flight
//! and CI can prove the destination survives (see
//! `crates/core/src/faultpoint.rs`).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::faultpoint::{self, Fault};

/// The fault point fired once per [`write_atomic`] call, before the
/// destination is touched. `ioerr` surfaces as the returned error;
/// `truncate` writes half the payload to the *temp* file and aborts
/// (the destination must stay valid — that is the whole claim).
pub const WRITE_POINT: &str = "persist.write";

/// Process-local sequence number so concurrent writers in one process
/// never share a temp file name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replace `path` with `bytes`.
///
/// On error the destination is untouched and the temp file has been
/// cleaned up (except when the process was deliberately killed by an
/// injected fault, in which case a stale `.….tmp.…` file may remain —
/// stale temps are inert and never read back).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = parent_dir(path);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("persist");
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = write_tmp(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result?;
    sync_parent(path);
    Ok(())
}

/// The directory `path` lives in.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

/// Make the directory entry of a file just created or renamed at `path`
/// durable: fsync its directory. Some platforms refuse to open a
/// directory for syncing; that degrades durability, not atomicity, so
/// it is best-effort.
pub(crate) fn sync_parent(path: &Path) {
    if let Ok(d) = File::open(parent_dir(path)) {
        let _ = d.sync_all();
    }
}

/// Write and fsync the temp file, applying any planned fault first.
fn write_tmp(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    match faultpoint::fire(WRITE_POINT) {
        Some(Fault::IoError) => return Err(faultpoint::injected_io_error(WRITE_POINT)),
        Some(Fault::Truncate) => {
            // A torn persist: half the payload reaches the temp file,
            // then the process dies. The destination never sees it.
            if let Ok(mut f) = File::create(tmp) {
                let _ = f.write_all(&bytes[..bytes.len() / 2]);
                let _ = f.sync_all();
            }
            faultpoint::abort_now(WRITE_POINT);
        }
        Some(Fault::Kill) => faultpoint::abort_now(WRITE_POINT),
        Some(Fault::Panic) => panic!("injected fault: {WRITE_POINT} panicked"),
        Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => {}
    }
    let mut f = File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tp-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn creates_and_replaces() {
        let dir = scratch("basic");
        let p = dir.join("out.txt");
        write_atomic(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        write_atomic(&p, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second, longer payload");
        // No temp litter on the success path.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let dir = scratch("fail");
        let p = dir.join("out.txt");
        write_atomic(&p, b"good").unwrap();
        // Writing into a path whose parent is a *file* must fail
        // without disturbing the original.
        let bad = p.join("child.txt");
        assert!(write_atomic(&bad, b"evil").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"good");
        let _ = fs::remove_dir_all(&dir);
    }
}
