//! Runs test threads as tasks of a deterministic executor: a GOS lock or barrier
//! may block only a running executor task.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use jessy_net::{DetExecutor, POISON_MSG};

/// Run `bodies[t]` as task `t` of `exec`, each on its own scoped carrier, and
/// return their results in task order. A body that panics is retired, so a task
/// it would have woken dies of the executor's poison instead of hanging, and the
/// body's own panic is re-raised here.
pub fn run_tasks<T: Send>(exec: &DetExecutor, bodies: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    assert_eq!(bodies.len(), exec.n_tasks(), "one body per task");
    let outcomes: Vec<std::thread::Result<T>> = std::thread::scope(|s| {
        let carriers: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(task, body)| {
                s.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        exec.register_current(task);
                        body()
                    }));
                    exec.finish(task);
                    out
                })
            })
            .collect();
        carriers
            .into_iter()
            .map(|c| c.join().expect("a carrier catches its task's panic"))
            .collect()
    });
    // A poison cascade is the consequence of a failure, not its cause.
    let is_poison = |p: &(dyn Any + Send)| p.downcast_ref::<String>().is_some_and(|m| m == POISON_MSG);
    let mut results = Vec::with_capacity(outcomes.len());
    let mut cascade = None;
    for outcome in outcomes {
        match outcome {
            Ok(value) => results.push(value),
            Err(payload) if is_poison(&*payload) => cascade = cascade.or(Some(payload)),
            Err(payload) => resume_unwind(payload),
        }
    }
    if let Some(payload) = cascade {
        resume_unwind(payload);
    }
    results
}
