//! # sciborq-skyserver
//!
//! A synthetic Sloan Digital Sky Survey style data warehouse: the substrate
//! the SciBORQ experiments run against.
//!
//! The paper evaluates against the 4 TB SkyServer database and its public
//! query logs; neither is redistributable at that scale, so this crate
//! generates a statistically similar stand-in:
//!
//! * [`PhotoObjGenerator`] — a clustered synthetic `PhotoObjAll` fact table
//!   streamed in incremental-load batches,
//! * [`generate_field_table`] / [`generate_photo_type_table`] — dimension
//!   tables reached through foreign keys (Figure 1),
//! * [`Cone`] / [`get_nearby_obj_eq`] — the `fGetNearbyObjEq` cone-search
//!   function of the SkyServer schema,
//! * [`SkyDataset`] — an end-to-end builder registering everything in a
//!   [`sciborq_columnar::Catalog`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod dataset;
pub mod dimensions;
pub mod photoobj;

pub use cone::{get_nearby_obj_eq, Cone};
pub use dataset::{DatasetConfig, SkyDataset};
pub use dimensions::{
    field_schema, generate_field_table, generate_photo_type_table, photo_type_schema,
};
pub use photoobj::{photoobj_schema, PhotoObjGenerator, SkyCluster, SkyConfig};
