//! # lc-reactor — minimal edge-triggered epoll readiness primitives
//!
//! The paper's FPGA host interface sustains thousands of concurrent
//! document streams because the hardware never blocks on any single
//! stream. This crate is the software image of that property for the TCP
//! service: a thin, dependency-free wrapper over the Linux readiness
//! interfaces —
//!
//! * [`Epoll`] — `epoll_create1` / `epoll_ctl` / `epoll_wait`, always
//!   **edge-triggered** (`EPOLLET`): an event means "readiness may have
//!   changed, drain until `WouldBlock`", never "one unit of work".
//! * [`EventFd`] — `eventfd` wakeups, so worker threads can nudge a
//!   reactor parked in `epoll_wait` after enqueueing outbound bytes.
//! * [`WriteBuf`] — a partial-write-resumable outbound byte queue:
//!   `write_to` pushes as much as the socket accepts and keeps the rest
//!   for the next `EPOLLOUT` edge.
//! * [`sys`] — the `extern "C"` declarations themselves plus small safe
//!   helpers (`set_nonblocking` via `fcntl`, `set_send_buffer`,
//!   `set_recv_buffer`, `raise_nofile_limit`).
//!
//! Consistent with the offline shim policy (`crates/shims/README.md`),
//! there are **no external dependencies**: the handful of syscall
//! signatures used here are declared directly. All `unsafe` in the
//! workspace lives in this crate, behind safe interfaces; `lc-service`
//! itself stays `#![forbid(unsafe_code)]`.
//!
//! Edge-triggered discipline, in one place so every consumer agrees:
//!
//! 1. Register once with [`Interest::READABLE`]` | `[`Interest::WRITABLE`];
//!    maintain `read_ready` / `write_ready` flags per fd.
//! 2. An event **sets** a flag; hitting `WouldBlock` **clears** it. Never
//!    wait for an event while a flag is still set — it will not come.
//! 3. `EPOLL_CTL_MOD` re-arms: after a modify, a currently-ready fd
//!    delivers a fresh edge. (Callers should still conservatively re-set
//!    their ready flags after a modify rather than rely on it.)

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "lc-reactor speaks the Linux epoll/eventfd interfaces directly; \
     porting the service to another OS means adding a readiness backend here"
);

pub mod epoll;
pub mod eventfd;
pub mod sys;
pub mod writebuf;

pub use epoll::{Epoll, Event, Events, Interest};
pub use eventfd::EventFd;
pub use sys::{
    install_termination_handler, raise_nofile_limit, set_nonblocking, set_recv_buffer,
    set_send_buffer, termination_requested,
};
pub use writebuf::WriteBuf;
