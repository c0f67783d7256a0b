//! `sim-trace`: the compact on-disk trace format (`.strc`) and its
//! streaming reader/writer.
//!
//! Campaigns generate their traces in process (the workloads are
//! deterministic generators, and generation is faster than decoding);
//! `.strc` is the interchange and audit format for traces that leave
//! the process. [`TraceWriter`] packs `DynInstr` records into
//! delta-encoded, varint-packed, checksummed chunks behind a
//! self-describing header, with an optional BBV side-section of
//! per-chunk fingerprints; [`TraceReader`] streams them back as an
//! `Iterator<Item = Result<DynInstr, TraceError>>`. The `trace-pack`
//! binary records, inspects, validates, and micro-benchmarks `.strc`
//! files.
//!
//! Corruption is loud by construction: every chunk carries its length
//! and an FNV-1a-64 checksum, the header checksums itself, and a clean
//! end-of-file with fewer records than the header declares is a typed
//! [`TraceError::Truncated`] rather than a silently shorter trace.
//!
//! # Example
//!
//! ```
//! use sim_isa::{Addr, DynInstr, InstrClass, VecTrace};
//! use sim_trace::{encode_to_vec, TraceMeta, TraceReader};
//!
//! let trace: VecTrace = (0..100)
//!     .map(|i| DynInstr::op(Addr::from_word_index(i), InstrClass::Integer))
//!     .collect();
//! let meta = TraceMeta {
//!     benchmark: "example".into(),
//!     scale: "quick".into(),
//!     seed: 42,
//!     generator_version: 1,
//! };
//! let bytes = encode_to_vec(meta, &trace).unwrap();
//! let reader = TraceReader::new(bytes.as_slice()).unwrap();
//! assert_eq!(reader.header().instructions, 100);
//! let decoded = reader.read_to_end().unwrap();
//! assert_eq!(decoded, trace);
//! ```

#![warn(missing_docs)]

pub mod bbv;
pub mod format;
pub mod reader;
pub mod varint;
pub mod writer;

pub use bbv::{fingerprint_trace, BbvSection, ChunkFingerprint, FingerprintBuilder, BBV_MAGIC};
pub use format::{
    StatsSummary, TraceError, TraceHeader, TraceMeta, CHUNK_RECORDS, FORMAT_VERSION, MAGIC,
};
pub use reader::{read_trace_file, read_trace_file_with_bbv, TraceReader};
pub use writer::{encode_to_vec, write_trace, TraceWriter, WriteSummary};
