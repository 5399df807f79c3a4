#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! Crash-safe checkpoint layer for the ChainNet workspace.
//!
//! Long-lived jobs (surrogate training, SA placement search, dataset
//! generation) persist their full resumable state through this crate
//! so a killed process continues exactly where it left off. Because
//! the workspace is fully deterministic (vendored RNG, lint rule R2),
//! the layer is held to a strong bar: a killed-and-resumed run must
//! produce **bit-identical** results to an uninterrupted one.
//!
//! Three guarantees, each with its own module:
//!
//! * [`atomic`] — every write is temp-file + fsync + rename, so a
//!   crash can never leave a torn artifact at the target path;
//! * [`envelope`] — every checkpoint is wrapped in a versioned,
//!   CRC32-checksummed envelope; no unverified byte ever reaches a
//!   decoder;
//! * [`store`] — recovery quarantines corrupt files to `*.corrupt`
//!   and falls back to the most recent verified checkpoint instead of
//!   panicking or silently starting over.
//!
//! Metrics (`ckpt.writes`, `ckpt.bytes_written`,
//! `ckpt.corrupt_detected`, `ckpt.resumes`) flow through
//! [`chainnet_obs`]; the on-disk format and compatibility policy are
//! documented in `docs/checkpointing.md`.
//!
//! # Quick start
//!
//! ```
//! use chainnet_ckpt::CkptStore;
//!
//! let dir = std::env::temp_dir().join(format!("ckpt-doc-{}", std::process::id()));
//! let store = CkptStore::open(&dir, "train", 1).unwrap();
//! store.save_state(1, &vec![0.25_f64, 0.5]).unwrap();
//! let (seq, weights): (u64, Vec<f64>) = store.load_latest_state().unwrap().unwrap();
//! assert_eq!((seq, weights), (1, vec![0.25, 0.5]));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod atomic;
pub mod envelope;
pub mod error;
pub mod store;

pub use atomic::atomic_write;
pub use envelope::{crc32, decode, encode, HEADER_LEN, MAGIC};
pub use error::{CkptError, EnvelopeError};
pub use store::{CkptStore, CKPT_EXTENSION, CORRUPT_SUFFIX};
