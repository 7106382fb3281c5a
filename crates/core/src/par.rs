//! Parallel fan-out and the shared session scheduler.
//!
//! Two distinct concurrency tools live here:
//!
//! * `map_jobs` / `map_jobs_indexed` / `map_jobs_mut` (crate-private) —
//!   the crate's single data-parallel fan-out point. Every
//!   data-parallel loop (batch proving/verification for all four
//!   methods, FULL row hashing — both the owner-side build and the
//!   provider's batched row proofs — HYP border Dijkstras, and LDM's
//!   landmark rows, built or repaired in place) routes through them.
//!   Each call splits
//!   its jobs into one contiguous chunk per core and maps the chunks on
//!   scoped threads, so thread-local
//!   [`spnet_graph::search::SearchWorkspace`] reuse holds within one
//!   call but not across calls; results do not depend on the split.
//!
//! * [`Scheduler`] — a fixed pool of persistent workers sharing one job
//!   queue, for the serving layer.
//!   [`crate::service::SpService`] owns one pool per service and every
//!   [`crate::service::Session`] stream prefetches its next chunk
//!   through it (double buffering: the provider proves chunk k+1 while
//!   the client verifies chunk k). The workers outlive the jobs, so a
//!   worker's search workspace stays warm across every chunk it
//!   proves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Maps `jobs` in input order, one contiguous chunk per available core,
/// each chunk on its own scoped thread (inline when one thread or one
/// job suffices).
pub(crate) fn map_jobs<T: Sync, R: Send>(jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let parts: Vec<&[T]> = jobs.chunks(chunk_len(jobs.len())).collect();
    fan_out(parts, |part| part.iter().map(&f).collect())
}

/// Like [`map_jobs`], but hands each job its input mutably — the shape
/// of in-place repairs over independent rows.
pub(crate) fn map_jobs_mut<T: Send, R: Send>(
    jobs: &mut [T],
    f: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let len = jobs.len();
    let parts: Vec<&mut [T]> = jobs.chunks_mut(chunk_len(len)).collect();
    fan_out(parts, |part| part.iter_mut().map(&f).collect())
}

/// Jobs per chunk: one contiguous chunk per available core.
fn chunk_len(jobs: usize) -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    jobs.div_ceil(threads).max(1)
}

/// Runs `run` on every part, each on its own scoped thread (inline when
/// there is at most one), and concatenates the results in order.
fn fan_out<P: Send, R: Send>(parts: Vec<P>, run: impl Fn(P) -> Vec<R> + Sync) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().flat_map(run).collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || run(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Like [`map_jobs`], but hands each job its input index — the shape
/// the per-query batch verify jobs need (query `i` must be matched
/// with the batch's `i`-th proof slice without cloning the queries
/// into `(index, query)` tuples at every call site).
pub(crate) fn map_jobs_indexed<T: Sync, R: Send>(
    jobs: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let indices: Vec<usize> = (0..jobs.len()).collect();
    map_jobs(&indices, |&i| f(i, &jobs[i]))
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool for session serving: `threads` persistent
/// workers taking jobs in submission order from one shared queue.
///
/// Jobs are opaque `FnOnce` closures; callers that need results send
/// them back over a channel (the pattern
/// [`crate::service::Session::query_stream`] uses for chunk
/// prefetching). Dropping the scheduler closes the queue; the workers
/// drain every job already queued and exit, and the drop joins them —
/// a submitted job always runs, so receivers never observe a silently
/// vanished result.
pub struct Scheduler {
    /// `None` only during drop: closing the queue is the shutdown
    /// signal.
    queue: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    executed: Arc<AtomicU64>,
}

impl Scheduler {
    /// Starts a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let (queue, jobs) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let executed = Arc::new(AtomicU64::new(0));
        let workers = (0..threads.max(1))
            .map(|me| {
                let jobs = Arc::clone(&jobs);
                let executed = Arc::clone(&executed);
                std::thread::Builder::new()
                    .name(format!("spnet-sched-{me}"))
                    .spawn(move || loop {
                        // The lock guard is a temporary of this
                        // statement: it is held while waiting for a
                        // job, never while running one.
                        let next = jobs.lock().expect("scheduler queue poisoned").recv();
                        // `Err` once the queue is closed and drained.
                        let Ok(job) = next else { return };
                        executed.fetch_add(1, Ordering::Relaxed);
                        job();
                    })
                    .expect("failed to spawn scheduler worker")
            })
            .collect();
        Scheduler {
            queue: Some(queue),
            workers,
            executed,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job; the next free worker runs it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        // Fails only if every worker died in a panicking job; the job
        // is then dropped, and so is any result sender it owns, which
        // its receiver observes as a disconnect.
        let _ = self
            .queue
            .as_ref()
            .expect("queue open until drop")
            .send(Box::new(job));
    }

    /// Total jobs the workers have started (all workers).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.queue = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.workers.len())
            .field("executed", &self.executed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_jobs_preserves_input_order() {
        let jobs: Vec<u32> = (0..257).collect();
        let out = map_jobs(&jobs, |&x| x * 2);
        assert_eq!(out, jobs.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_jobs_empty_and_single() {
        assert!(map_jobs(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(map_jobs(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_jobs_mut_edits_every_job_in_place() {
        let mut jobs: Vec<u32> = (0..257).collect();
        let out = map_jobs_mut(&mut jobs, |x| {
            *x += 1;
            *x * 2
        });
        assert_eq!(jobs, (1..258).collect::<Vec<_>>());
        assert_eq!(out, jobs.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(map_jobs_mut(&mut [] as &mut [u32], |&mut x| x).is_empty());
    }

    #[test]
    fn map_jobs_indexed_passes_matching_indices() {
        let jobs: Vec<u32> = (100..164).collect();
        let out = map_jobs_indexed(&jobs, |i, &x| (i, x));
        for (i, &(gi, gx)) in out.iter().enumerate() {
            assert_eq!(gi, i);
            assert_eq!(gx, jobs[i]);
        }
    }

    #[test]
    fn scheduler_runs_every_job() {
        let pool = Scheduler::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..200u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
        assert_eq!(pool.executed(), 200);
    }

    #[test]
    fn sequential_round_trips_never_lose_a_wakeup() {
        // One job in flight at a time, so every submission finds the
        // workers idle: a lost wakeup fails the timeout instead of
        // hanging the test.
        for threads in [1, 2] {
            let pool = Scheduler::new(threads);
            let (tx, rx) = mpsc::channel();
            for i in 0..10_000u32 {
                let tx = tx.clone();
                pool.spawn(move || tx.send(i).unwrap());
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(1)),
                    Ok(i),
                    "job {i} on {threads} worker(s)"
                );
            }
        }
    }

    #[test]
    fn drop_drains_queued_jobs_before_joining() {
        let (tx, rx) = mpsc::channel::<u32>();
        {
            let pool = Scheduler::new(1);
            for i in 0..16 {
                let tx2 = tx.clone();
                pool.spawn(move || {
                    let _ = tx2.send(i);
                });
            }
            drop(tx);
        }
        // Every submitted job ran before the pool shut down.
        assert_eq!(rx.iter().count(), 16);
    }
}
