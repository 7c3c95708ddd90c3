//! The fixed worker pool the deployment runs solver jobs on.
//!
//! A [`ShardPool`] owns `workers` OS threads for its whole lifetime (a deployment's pool lives
//! as long as the deployment, amortizing thread spawns to zero on the serving path). Work is
//! submitted as batches of independent jobs via [`ShardPool::scatter`]; results come back in
//! submission order, so callers see deterministic output regardless of which worker ran what or
//! in which order workers finished. Its one caller in the crate submits each `count`/`valid`
//! request as a single sequential solver job ([`crate::Deployment::count_models`],
//! [`crate::Deployment::check_validity`]), whose answer is therefore the same at any width;
//! downgrades are decided on the thread that received them.
//!
//! The design is the classic share-nothing-then-merge worker pool of the differential-dataflow
//! lineage: jobs carry owned data in, results are merged by the caller after the barrier.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads executing boxed jobs (see the module docs above).
pub struct ShardPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns a pool with the given number of workers (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("anosy-shard-{index}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawning a shard worker")
            })
            .collect();
        ShardPool { sender: Some(sender), workers: handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs every job on the pool and returns their results **in submission order**. Blocks
    /// until all jobs finish (a barrier). A job that panics yields `Err` carrying the original
    /// panic payload in its slot (so callers can `resume_unwind` it with the real message); the
    /// other jobs still complete.
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let total = jobs.len();
        let (results_tx, results_rx) = channel::<(usize, std::thread::Result<T>)>();
        for (index, job) in jobs.into_iter().enumerate() {
            let results_tx = results_tx.clone();
            let boxed: Job = Box::new(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                // The receiver only disappears if the caller itself unwound; dropping the
                // result is the right behavior then.
                let _ = results_tx.send((index, result));
            });
            self.sender
                .as_ref()
                .expect("pool sender lives until drop")
                .send(boxed)
                .expect("workers live until drop");
        }
        drop(results_tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> =
            std::iter::repeat_with(|| None).take(total).collect();
        // The results channel closes once every clone of `results_tx` is dropped; the
        // catch_unwind above guarantees every job sends exactly once.
        for (index, result) in results_rx.iter() {
            slots[index] = Some(result);
        }
        slots.into_iter().map(|slot| slot.expect("every job sends exactly once")).collect()
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Holding the lock only while popping keeps the other workers runnable; a poisoned lock
        // (a panicking job elsewhere) is recovered, not propagated.
        let job = {
            let guard = receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => {
                // A panicking job must not take the worker down with it. `scatter` already
                // caught the panic and sent it as an `Err` slot carrying its payload, so this
                // guard only keeps the worker alive; then move on to the next job.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            Err(_) => return, // pool dropped: no more jobs will ever arrive
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // closes the job channel; workers drain and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("workers", &self.workers.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_submission_order() {
        let pool = ShardPool::new(4);
        assert_eq!(pool.workers(), 4);
        let jobs: Vec<_> = (0..64).map(|i| move || i * i).collect();
        let results = pool.scatter(jobs);
        let got: Vec<i32> = results.into_iter().map(Result::unwrap).collect();
        let want: Vec<i32> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_survives_panicking_jobs_and_preserves_the_payload() {
        let pool = ShardPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("job 1 exploded")), Box::new(|| 3)];
        let results = pool.scatter(jobs);
        assert_eq!(results[0].as_ref().ok(), Some(&1));
        assert_eq!(results[2].as_ref().ok(), Some(&3));
        let payload = results[1].as_ref().unwrap_err();
        let message = payload.downcast_ref::<&str>().expect("payload is the panic message");
        assert_eq!(*message, "job 1 exploded");
        // The pool still works afterwards.
        let again = pool.scatter(vec![|| 7]);
        assert_eq!(again.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.workers(), 1);
        let results = pool.scatter(vec![|| 42]);
        assert_eq!(results.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![42]);
    }
}
