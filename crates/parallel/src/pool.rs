//! The process-wide worker pool behind [`run`](crate::run).
//!
//! A worker is a parked thread with a one-job mailbox. A fan-out pops one
//! idle worker per item past the first (spawning a new one only when the
//! free list is empty), posts the item to its mailbox, runs the first item
//! itself, then waits for each worker in item order and pushes it back on
//! the free list. Since a call never waits for a worker another call
//! holds, nested fan-outs (an item that calls `run`) and concurrent ones
//! (unrelated callers) cannot deadlock; they only grow the pool. Idle
//! workers block on their condvar, so a parked pool costs no CPU.
//!
//! No call allocates once the pool has grown to its peak concurrency: an
//! item and its result live in a [`Task`] in the stack frame of the
//! recursive [`dispatch`] that posted it, and those frames are linked
//! by [`Pending`] so the innermost one can deliver every result in order.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Workers waiting for an item, most recently returned last. Workers are
/// leaked on purpose: each lives as long as the process.
static IDLE: Mutex<Vec<&'static Worker>> = Mutex::new(Vec::new());

/// Locks `m`, ignoring poison: no pool lock is held across user code, so
/// a poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pool thread and its mailbox. `job` is `Some` from the moment a
/// caller posts an item until the worker has finished it: the worker
/// waits while it is `None`, the caller while it is `Some`, and since at
/// most one of the two waits at a time, one condvar serves both.
struct Worker {
    job: Mutex<Option<Job>>,
    wake: Condvar,
}

/// A posted item with its lifetime erased: `task` points at a
/// `Task<F, W, R>` and `execute` is `execute::<F, W, R>`.
#[derive(Clone, Copy)]
struct Job {
    task: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: a job moves a `Task` to another thread only through `execute`,
// whose bounds (`F: Sync`, `W: Send`, `R: Send`) make that sound, and the
// task outlives the job (see `Pending`).
unsafe impl Send for Job {}

impl Worker {
    /// Takes a worker off the free list, or spawns one.
    fn checkout() -> &'static Worker {
        let idle = lock(&IDLE).pop();
        idle.unwrap_or_else(Worker::spawn)
    }

    // The one spawn site of the workspace's data-parallel kernels (the
    // root `clippy.toml` disallows every other way to start a thread).
    // The handle is dropped on purpose: a worker never returns, and an
    // item's panic is caught in `execute` and re-raised on its caller.
    #[allow(clippy::disallowed_methods)]
    fn spawn() -> &'static Worker {
        let worker: &'static Worker =
            Box::leak(Box::new(Worker { job: Mutex::new(None), wake: Condvar::new() }));
        std::thread::Builder::new()
            .name("pcc-parallel".into())
            .spawn(move || worker.serve())
            .expect("failed to spawn a pcc-parallel pool worker");
        worker
    }

    /// The worker thread: runs each posted job, then clears the mailbox.
    fn serve(&self) {
        let mut job = lock(&self.job);
        loop {
            match *job {
                Some(Job { task, execute }) => {
                    drop(job);
                    // SAFETY: the posting `dispatch` frame keeps the task
                    // alive until it sees the mailbox cleared below.
                    unsafe { execute(task) };
                    job = lock(&self.job);
                    *job = None;
                    self.wake.notify_one();
                }
                None => job = self.wake.wait(job).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    fn post(&self, job: Job) {
        *lock(&self.job) = Some(job);
        self.wake.notify_one();
    }

    /// Blocks until the posted job has finished.
    fn wait(&self) {
        let mut job = lock(&self.job);
        while job.is_some() {
            job = self.wake.wait(job).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One item in flight: the work, and the item going in, replaced by its
/// result (or panic) coming out.
struct Task<'a, F, W, R> {
    work: &'a F,
    slot: UnsafeCell<Slot<W, R>>,
}

enum Slot<W, R> {
    Item(W),
    Done(std::thread::Result<R>),
    Taken,
}

/// Runs a posted task on the worker, catching a panic as its result.
///
/// # Safety
/// `task` must point at a live `Task<F, W, R>` that no other thread
/// touches until the job is cleared.
unsafe fn execute<F, W, R>(task: *const ())
where
    F: Fn(W) -> R + Sync,
    W: Send,
    R: Send,
{
    // SAFETY: per the contract, `task` points at a live `Task<F, W, R>`.
    let task = unsafe { &*task.cast::<Task<'_, F, W, R>>() };
    // SAFETY: per the contract, no other thread touches the slot until
    // this job is cleared, so this is its only reference.
    let slot = unsafe { &mut *task.slot.get() };
    if let Slot::Item(item) = std::mem::replace(slot, Slot::Taken) {
        *slot = Slot::Done(panic::catch_unwind(AssertUnwindSafe(|| (task.work)(item))));
    }
}

/// A dispatched task and its worker, linked to the one dispatched before
/// it. Dropping it waits for the worker and returns it to the pool — also
/// when the caller unwinds — and it is declared after its task, so no
/// task is freed while a worker still runs it.
struct Pending<'a, F, W, R> {
    worker: &'static Worker,
    task: &'a Task<'a, F, W, R>,
    prev: Option<&'a Pending<'a, F, W, R>>,
}

impl<F, W, R> Drop for Pending<'_, F, W, R> {
    fn drop(&mut self) {
        self.worker.wait();
        lock(&IDLE).push(self.worker);
    }
}

/// Runs `first` on this thread and every item of `rest` on a worker of
/// its own, and hands the results to `each` in item order.
pub(crate) fn fan_out<F, W, R>(
    work: &F,
    first: W,
    rest: &mut impl Iterator<Item = W>,
    each: &mut impl FnMut(R),
) where
    F: Fn(W) -> R + Sync,
    W: Send,
    R: Send,
{
    dispatch(work, first, rest, None, each);
}

/// Posts the next item of `rest` to a worker and recurses, one level per
/// item; the innermost level runs `first` and delivers every result.
/// `prev` is the task dispatched last so far.
fn dispatch<F, W, R>(
    work: &F,
    first: W,
    rest: &mut impl Iterator<Item = W>,
    prev: Option<&Pending<'_, F, W, R>>,
    each: &mut impl FnMut(R),
) where
    F: Fn(W) -> R + Sync,
    W: Send,
    R: Send,
{
    let Some(item) = rest.next() else {
        each(work(first));
        return deliver(prev, each);
    };
    let task = Task { work, slot: UnsafeCell::new(Slot::Item(item)) };
    let worker = Worker::checkout();
    worker.post(Job { task: (&raw const task).cast(), execute: execute::<F, W, R> });
    let pending = Pending { worker, task: &task, prev };
    dispatch(work, first, rest, Some(&pending), each);
}

/// Hands the results of `last` and of every task dispatched before it to
/// `each`, in dispatch order; a panicked task is re-raised here, and the
/// `Pending` guards wait for the remaining workers as it unwinds.
fn deliver<F, W, R>(last: Option<&Pending<'_, F, W, R>>, each: &mut impl FnMut(R)) {
    let Some(pending) = last else { return };
    deliver(pending.prev, each);
    pending.worker.wait();
    // SAFETY: the worker has finished with the task (it cleared its job),
    // so this thread has the slot to itself again.
    let slot = unsafe { &mut *pending.task.slot.get() };
    match std::mem::replace(slot, Slot::Taken) {
        Slot::Done(Ok(result)) => each(result),
        Slot::Done(Err(payload)) => panic::resume_unwind(payload),
        Slot::Item(_) | Slot::Taken => unreachable!("a finished task holds its result"),
    }
}
