//! Optimizer-facing consumers of histograms: range-query result-size
//! estimation (Section 2.2's motivating application) and the density
//! statistic collected alongside histograms by SQL Server (Section 7.1).

mod density;
mod range;

pub use density::{
    duplication_density, duplication_density_from_profile, expected_equality_matches,
    squared_frequency_density,
};
pub use range::{evaluate_range_query, true_range_count, RangeQueryError};
