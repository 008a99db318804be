//! # cube-store — the `.cubec` columnar binary store
//!
//! The CUBE XML format is the *interchange* representation: readable,
//! diffable, self-describing. This crate adds the *serving*
//! representation: `.cubec`, a versioned, magic-tagged binary container
//! that keeps the metadata tree dictionary-encoded in one compact
//! section and the dense severity values in fixed-size CRC-guarded
//! pages, so a reader can open an experiment without touching its data
//! pages at all. The on-disk layout is specified normatively in
//! `docs/STORE.md`; durability (atomic rename, checksum footers) and
//! salvage semantics follow the rules the XML format established in
//! `docs/FORMAT.md` §10.
//!
//! Three ways in, three policies over one bounds-checked container
//! parser and one page check (`read.rs`):
//!
//! * [`read_store_file`] — strict: verifies the whole-file checksum,
//!   every section CRC, and every severity chunk CRC, then
//!   materializes a validated [`cube_model::Experiment`].
//! * [`ColumnarExperiment::open`] — lazy: decodes only the metadata and
//!   chunk-CRC table (a few kilobytes however large the file);
//!   severity pages load and verify on first touch. The handle
//!   implements [`cube_algebra::BatchOperand`], so the batch engine
//!   gathers from the borrowed pages without ever building an
//!   `Experiment`.
//! * [`salvage_store_file_as`] — forgiving: zeroes exactly the damaged
//!   or missing severity chunks, keeps everything else, and reports
//!   what was lost in a [`StoreReport`]. A file whose declared size
//!   exceeds the input limit is refused, as the strict reader would.
//!
//! ```
//! use cube_algebra::{BatchPlan, Expr, MergeOptions, Reduction, BatchOperand};
//! use cube_store::{write_store_file, ColumnarExperiment};
//! # use cube_model::{ExperimentBuilder, Unit, RegionKind};
//! # use cube_model::builder::single_threaded_system;
//! # fn mk(v: f64) -> cube_model::Experiment {
//! #     let mut b = ExperimentBuilder::new("e");
//! #     let t = b.def_metric("time", Unit::Seconds, "", None);
//! #     let m = b.def_module("a", "a");
//! #     let r = b.def_region("main", m, RegionKind::Function, 1, 1);
//! #     let cs = b.def_call_site("a", 1, r);
//! #     let root = b.def_call_node(cs, None);
//! #     let ts = single_threaded_system(&mut b, 1);
//! #     b.set_severity(t, root, ts[0], v);
//! #     b.build().unwrap()
//! # }
//! # let dir = std::env::temp_dir().join(format!("cubec-doc-{}", std::process::id()));
//! # std::fs::create_dir_all(&dir).unwrap();
//! // pack: one canonical, checksummed, atomically-committed file each
//! let a = dir.join("a.cubec");
//! let b = dir.join("b.cubec");
//! write_store_file(&mk(10.0), &a)?;
//! write_store_file(&mk(4.0), &b)?;
//!
//! // lazy open: metadata only, severity pages stay on disk
//! let a = ColumnarExperiment::open(&a)?;
//! let b = ColumnarExperiment::open(&b)?;
//! a.severity()?; // surface I/O + CRC errors before the gather
//! b.severity()?;
//!
//! // gather: BatchPlan pulls from the borrowed pages directly
//! let ops: Vec<&dyn BatchOperand> = vec![&a, &b];
//! let plan = BatchPlan::from_operands(&ops, MergeOptions::default());
//! let mean = plan.eval(&Expr::reduce(Reduction::Mean, 0..2))?;
//! assert_eq!(mean.severity().values()[0], 7.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod layout;
pub mod lint;
pub mod meta;
pub mod read;
pub mod write;

pub use error::StoreError;
pub use lint::lint_file;
pub use read::{
    read_store, read_store_file, salvage_store_file_as, ColumnarExperiment, StoreReport,
};
pub use write::{write_store, write_store_file};
