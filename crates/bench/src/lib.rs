//! Experiment implementations shared by the `experiments` binary and the
//! Criterion benches.
//!
//! Each `report_*` function regenerates one table/figure/claim of Wah &
//! Li (1985) as a [`Report`]: its rows as plain data plus a machine
//! metrics document.  [`Report::render_text`] renders it for the
//! terminal and [`reports_to_json`] for the JSON ledgers.  The
//! experiment ids (E1…E27) match DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod table;

pub use report::{reports_to_json, Report};
pub use table::text_table;
