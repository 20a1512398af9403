//! Offline stand-in for the subset of the `rayon` API this workspace uses,
//! backed by a real work-stealing thread pool.
//!
//! Surface: `slice.par_iter()` / `vec.par_iter()` with
//! `map`/`enumerate`/`collect`/`sum` ([`IndexedParallelIterator`]), plus
//! [`scope`], [`join`], and explicit [`ThreadPool`]s with
//! [`ThreadPool::install`] for benches that pin a pool size. The global
//! pool is lazily created and honors `RAYON_NUM_THREADS`.
//!
//! Determinism contract: terminal operations deliver results **in index
//! order**, and float reductions add in index order, so output bytes never
//! depend on the pool size or the steal schedule — only wall-clock time
//! does. See `pool` for the scheduling design (per-worker deques, LIFO
//! pop, steal-half FIFO).

mod iter;
mod pool;

pub use iter::{
    Enumerate, FromIndexedParallelIterator, IndexedParallelIterator, IntoParallelRefIterator, Iter,
    Map,
};
pub use pool::{current_num_threads, join, scope, Scope, ThreadPool};

pub mod prelude {
    pub use crate::iter::{
        FromIndexedParallelIterator, IndexedParallelIterator, IntoParallelRefIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{join, scope, ThreadPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn par_iter_preserves_order_and_adapters() {
        let xs = vec![10, 20, 30];
        let ys: Vec<(usize, i32)> = xs.par_iter().enumerate().map(|(i, v)| (i, v * 2)).collect();
        assert_eq!(ys, vec![(0, 20), (1, 40), (2, 60)]);
        let arr = [1, 2, 3];
        let sum: i32 = arr[..].par_iter().sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn collect_preserves_index_order_under_stealing() {
        // Many more tasks than workers, with deliberately skewed task
        // durations so the steal path is exercised; the collected output
        // must still be in input order, on any pool size.
        let inputs: Vec<usize> = (0..256).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let out: Vec<usize> = pool.install(|| {
                inputs
                    .par_iter()
                    .map(|&i| {
                        if i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * i
                    })
                    .collect()
            });
            let expect: Vec<usize> = inputs.iter().map(|&i| i * i).collect();
            assert_eq!(out, expect, "order broke at {threads} threads");
        }
    }

    #[test]
    fn float_sums_add_in_index_order_on_every_pool_size() {
        // Float addition is not associative; the contract is that sums are
        // performed in index order, so any pool size gives the bits of the
        // sequential sum. The input sums to other bits in reverse order, so
        // a pool that added in any other fixed order fails here too.
        let xs: Vec<f64> = (0..500).map(|i| 1.0 / (i as f64 + 0.3)).collect();
        let index_order: f64 = xs.iter().map(|&x| x.sin()).sum();
        let reverse: f64 = xs.iter().rev().map(|&x| x.sin()).sum();
        assert_ne!(
            index_order.to_bits(),
            reverse.to_bits(),
            "input is order-blind"
        );
        for threads in [1usize, 2, 8] {
            let sum =
                ThreadPool::new(threads).install(|| xs.par_iter().map(|&x| x.sin()).sum::<f64>());
            assert_eq!(sum.to_bits(), index_order.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_tasks_can_spawn_more_tasks() {
        let hits = Mutex::new(Vec::new());
        scope(|s| {
            s.spawn(|s| {
                hits.lock().unwrap().push("outer");
                s.spawn(|_| {
                    hits.lock().unwrap().push("inner");
                });
            });
        });
        let got = hits.into_inner().unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&"outer") && got.contains(&"inner"));
    }

    #[test]
    fn scope_panics_propagate_to_the_scope_owner() {
        let result = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|_| panic!("boom in task"));
                s.spawn(|_| { /* the healthy sibling still completes */ });
            });
        });
        let payload = result.expect_err("scope must rethrow the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .unwrap()
        });
        assert!(msg.contains("boom in task"), "{msg}");
    }

    #[test]
    fn nested_par_iter_does_not_deadlock_on_a_one_thread_pool() {
        let pool = ThreadPool::new(1);
        let out: Vec<usize> = pool.install(|| {
            let outer: Vec<usize> = (0..4).collect();
            outer
                .par_iter()
                .map(|&i| {
                    let inner: Vec<usize> = (0..4).collect();
                    inner.par_iter().map(|&j| i * 10 + j).sum::<usize>()
                })
                .collect()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "b".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "b");
    }

    #[test]
    fn env_override_is_honored_by_explicit_pools() {
        // The global pool reads RAYON_NUM_THREADS once; explicit pools pin
        // their size directly.
        assert_eq!(ThreadPool::new(3).current_num_threads(), 3);
        assert_eq!(ThreadPool::new(0).current_num_threads(), 1);
    }
}
