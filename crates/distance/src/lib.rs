//! Distance functions and tuple distance patterns.
//!
//! RFD_c constraints compare attribute values through domain-appropriate
//! distance functions (paper Section 5.3): **edit distance** for text,
//! **absolute difference** for numbers, and the **equality constraint**
//! (0 / 1) for booleans. This crate implements those functions, the
//! per-tuple-pair [`pattern::DistancePattern`] (Definition 5.4), and small
//! pairwise-computation helpers used by RFD discovery.

pub mod functions;
pub mod index;
pub mod kernels;
pub mod oracle;
pub mod pattern;

pub use functions::{
    levenshtein, levenshtein_bounded, levenshtein_bounded_scalar, levenshtein_scalar,
    value_distance, value_distance_bounded,
};
pub use index::{intersect_sorted, union_sorted, AttrSnapshot, SimilarityIndex};
pub use kernels::{myers_levenshtein, myers_levenshtein_bounded, MyersPattern};
pub use oracle::{ColumnSnapshot, DistanceOracle, RowCode, DEFAULT_DICT_CAP};
pub use pattern::DistancePattern;
