//! Runs test threads as tasks of a deterministic executor: a GOS lock or barrier
//! may block only a running executor task.

use std::any::Any;
use std::panic::resume_unwind;

use jessy_net::{DetExecutor, TaskSpec, POISON_MSG};

/// Stack of each test task.
const STACK_BYTES: usize = 1024 * 1024;

/// Run `bodies[t]` as task `t` of `exec`, each on its own stack, and return
/// their results in task order. A body that panics is retired, so a task it
/// would have woken dies of the executor's poison instead of hanging, and the
/// body's own panic is re-raised here.
pub fn run_tasks<T: Send>(exec: &DetExecutor, bodies: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    assert_eq!(bodies.len(), exec.n_tasks(), "one body per task");
    let mut slots: Vec<Option<T>> = bodies.iter().map(|_| None).collect();
    let tasks = bodies
        .into_iter()
        .zip(slots.iter_mut())
        .map(|(body, slot)| TaskSpec::new(STACK_BYTES, move || *slot = Some(body())))
        .collect();
    let outcomes = exec.run_tasks(tasks).expect("map the task stacks");
    // A poison cascade is the consequence of a failure, not its cause.
    let is_poison = |p: &(dyn Any + Send)| p.downcast_ref::<String>().is_some_and(|m| m == POISON_MSG);
    let mut results = Vec::with_capacity(outcomes.len());
    let mut cascade = None;
    for (outcome, slot) in outcomes.into_iter().zip(slots) {
        match outcome {
            Ok(()) => results.push(slot.expect("a body that returned left its result")),
            Err(payload) if is_poison(&*payload) => cascade = cascade.or(Some(payload)),
            Err(payload) => resume_unwind(payload),
        }
    }
    if let Some(payload) = cascade {
        resume_unwind(payload);
    }
    results
}
