//! The lint passes. Each pass takes the built [`crate::model::FileModel`]s
//! and returns raw diagnostics; suppression filtering happens centrally in
//! [`crate::analyze`].

pub mod bounds;
pub mod fault_discipline;
pub mod kernel_parity;
pub mod lock_order;
