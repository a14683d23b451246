//! Sort-merge join.
//!
//! The **setup phase** sorts both inputs by join key ([`SortedRun`],
//! produced by a stable LSD radix sort on the `u32` key, chunks merged
//! pairwise when several threads sort — the paper sorts `R_i` and `S_i` in
//! parallel with a qsort-based routine), and builds a directory over the
//! stationary run's keys. The **join phase** finds each probe key's band
//! window through that directory instead of walking the stationary run;
//! it splits the probe side across threads for multi-core execution.
//!
//! Sorting costs far more than building hash tables, but in cyclo-join the
//! sort is a one-time investment amortized over the whole revolution
//! (§V-E), and the merge phase is ~2× faster than hash probing.

pub mod join;
pub mod run;

pub use join::{merge_join, SortMergeState};
pub use run::SortedRun;
