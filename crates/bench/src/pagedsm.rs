//! The page-based DSM baseline.
//!
//! The paper motivates fine-grained tracking with Fig. 1: page-based active
//! correlation tracking (D-CVM style) "can only reveal the *induced* sharing pattern
//! rather than the application's inherent pattern after the effect of false-sharing".
//! This module reproduces that baseline over the same object population:
//!
//! * [`layout`] places objects in a flat virtual address space exactly as a bump
//!   allocator would (allocation order, headers included), mapping each object to the
//!   4 KB page range it spans;
//! * [`induced`] rebuilds the thread correlation map at *page* granularity from a
//!   recorded OAL stream: a page shared by two threads in an interval contributes a
//!   full page of "correlation", however little of it each thread actually touched —
//!   the false-sharing blur of Fig. 1(b).

pub mod induced;
pub mod layout;

pub use induced::InducedTcmBuilder;
pub use layout::{PageLayout, PAGE_SIZE};
