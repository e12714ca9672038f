//! Worker identity across `pcc_parallel::run` calls.
//!
//! The pool is process-wide, so these checks live in a binary of their
//! own and in ONE `#[test]`: a sibling test fanning out on another harness
//! thread would check workers out between two calls here and change
//! which workers the next call gets.

use std::collections::HashSet;
use std::thread::ThreadId;

/// The threads other than the caller that ran the items of one
/// `run(0..items)` call, whose item `panic_at` (if any) panics.
fn workers_of(items: usize, panic_at: Option<usize>) -> Vec<ThreadId> {
    let caller = std::thread::current().id();
    let mut seen = Vec::new();
    pcc_parallel::run(
        0..items,
        |i| {
            if Some(i) == panic_at {
                panic!("item {i} failed");
            }
            std::thread::current().id()
        },
        |thread| seen.push(thread),
    );
    assert_eq!(seen.first(), Some(&caller), "item 0 runs on the caller");
    seen.split_off(1)
}

#[test]
fn run_reuses_its_workers_and_keeps_them_after_an_item_panics() {
    let mut workers = HashSet::new();
    for _ in 0..50 {
        workers.extend(workers_of(3, None));
    }
    assert_eq!(workers.len(), 2, "50 calls of 3 items must share 2 workers");

    // The panic reaches the caller; the worker that caught it stays.
    let failed = std::panic::catch_unwind(|| workers_of(3, Some(2)));
    assert!(failed.is_err(), "the item panic must reach the caller");
    for _ in 0..10 {
        let after = workers_of(3, None);
        assert_eq!(after.len(), 2);
        assert!(after.iter().all(|t| workers.contains(t)), "a call after the panic spawned");
    }
}
