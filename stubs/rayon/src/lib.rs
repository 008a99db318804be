//! Offline stand-in for the `rayon` crate, backed by a **real** thread
//! pool.
//!
//! The build environment has no crate registry, so this crate provides
//! the `rayon` API subset the workspace uses — `par_iter`,
//! `par_iter_mut`, `par_chunks_mut`, integer-range `into_par_iter`,
//! [`join`], [`scope`] — executing on a process-wide pool of
//! `std::thread` workers (see [`mod@iter`] and the pool docs in the
//! source). Call sites written against upstream `rayon` compile
//! unchanged; point the workspace dependency back at upstream and
//! nothing else moves.
//!
//! # Sizing
//!
//! The pool starts lazily with `CUBE_THREADS`, else
//! [`std::thread::available_parallelism`] threads (the caller counts as
//! one of them). [`set_threads`] retargets it at runtime —
//! this is a facade extension used by `cube --threads N`; upstream
//! `rayon` sizes its global pool with `ThreadPoolBuilder` instead. At
//! an effective count of 1 every entry point runs inline with zero
//! dispatch cost.
//!
//! # Determinism
//!
//! All results are **byte-identical for every thread count**. Work is
//! split by input length alone (recursive halving to a fixed leaf
//! size), element-wise effects are disjoint, and reductions combine
//! leaf results positionally along that fixed tree — floating-point
//! association never depends on scheduling. `ci/check.sh` enforces
//! this end-to-end by comparing derived `.cube` files across
//! `--threads 1/2/8`.

mod pool;

pub mod iter;

pub use pool::{current_num_threads, join, scope, set_threads, Scope};

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude`.

    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    //! The drop-in-compatibility smoke test kept verbatim from the old
    //! serial shim: every entry point the workspace uses, exercised
    //! through `prelude::*` exactly as call sites write it.

    use super::prelude::*;

    #[test]
    // The Vec really is the point: call sites par_iter over Vecs, and
    // that must keep reaching the slice impl through autoderef.
    #[allow(clippy::useless_vec)]
    fn entry_points_behave_like_std_iterators() {
        let v = vec![1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);

        let mut dst = [1.0, 2.0, 3.0];
        let src = [0.5, 0.5, 0.5];
        dst.par_iter_mut()
            .zip(src.par_iter())
            .for_each(|(d, s)| *d -= *s);
        assert_eq!(dst, [0.5, 1.5, 2.5]);

        let sum: i32 = (0..5i32).into_par_iter().sum();
        assert_eq!(sum, 10);

        let mut xs = [1, 2, 3, 4, 5];
        xs.par_chunks_mut(2)
            .enumerate()
            .for_each(|(i, chunk)| chunk.iter_mut().for_each(|x| *x += i as i32 * 10));
        assert_eq!(xs, [1, 2, 13, 14, 25]);
    }
}
