//! The `extern "C"` declarations and small safe helpers.
//!
//! Only the syscall surface the reactor actually uses is declared —
//! `epoll_create1` / `epoll_ctl` / `epoll_wait`, `eventfd`, `close`,
//! `read` / `write` (for the eventfd counter), `fcntl` (nonblocking
//! mode), `setsockopt` (send-buffer tuning in tests and benches) and
//! `getrlimit` / `setrlimit` (fd headroom for many-hundreds-of-connection
//! runs). Constants are the x86-64/aarch64 Linux values; the crate root
//! rejects other target OSes at compile time.
//!
//! Everything `unsafe` is confined to this module and [`crate::epoll`] /
//! [`crate::eventfd`]; all exported functions are safe.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};

pub(crate) mod ffi {
    use std::os::raw::{c_int, c_uint, c_void};

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
    /// it (12 bytes); other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct rlimit` for `RLIMIT_NOFILE`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        pub fn signal(signum: c_int, handler: usize) -> usize;
    }
}

// epoll_create1 / eventfd flags.
pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
pub(crate) const EFD_CLOEXEC: c_int = 0o2000000;
pub(crate) const EFD_NONBLOCK: c_int = 0o4000;

// epoll_ctl operations.
pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

// epoll event bits.
pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLET: u32 = 1 << 31;

// fcntl.
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

// setsockopt.
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

// rlimit.
const RLIMIT_NOFILE: c_int = 7;

// signals.
const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;
/// glibc's `SIG_ERR` is `(void (*)(int))-1`.
const SIG_ERR: usize = usize::MAX;

/// Turn a `-1`-on-error C return into an `io::Result`, capturing `errno`
/// via [`io::Error::last_os_error`].
pub(crate) fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Close a raw fd, ignoring errors (the only sane close-on-drop policy).
pub(crate) fn close_fd(fd: RawFd) {
    // SAFETY: the callers in this crate own `fd` and call this exactly
    // once, from `Drop`.
    unsafe {
        let _ = ffi::close(fd);
    }
}

/// Put `fd` into nonblocking mode via `fcntl(F_GETFL/F_SETFL)`.
///
/// Equivalent to `TcpStream::set_nonblocking(true)`, but usable on any
/// fd the reactor tracks.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl with F_GETFL/F_SETFL reads/writes the fd's status
    // flags only; no pointers are involved.
    let flags = cvt(unsafe { ffi::fcntl(fd, F_GETFL) })?;
    cvt(unsafe { ffi::fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

/// Set `SO_SNDBUF` on a socket fd.
///
/// The kernel doubles the value for bookkeeping and clamps it to a
/// minimum, so the effective buffer may differ; this exists so tests and
/// benches can make a peer's send window small enough to exercise
/// partial-write and slow-consumer paths quickly.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer_size(fd, SO_SNDBUF, bytes)
}

/// Set `SO_RCVBUF` on a socket fd.
///
/// Same kernel doubling and clamping as [`set_send_buffer`]. A small
/// receive buffer caps how much a non-reading peer absorbs, so a test's
/// slow consumer stalls the server's writes on any host instead of
/// depending on the kernel's receive-buffer auto-tuning.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer_size(fd, SO_RCVBUF, bytes)
}

fn set_buffer_size(fd: RawFd, opt: c_int, bytes: usize) -> io::Result<()> {
    let val = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: optval points at a live c_int and optlen matches its size.
    cvt(unsafe {
        ffi::setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            (&val as *const c_int).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    Ok(())
}

/// Raise the soft `RLIMIT_NOFILE` toward `want` (capped by the hard
/// limit) and return the resulting soft limit.
///
/// Many-hundreds-of-connection runs — the scenarios this crate exists
/// for — need more fds than the common soft default of 1024.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = ffi::RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable RLimit.
    cvt(unsafe { ffi::getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur >= want {
        return Ok(lim.cur);
    }
    let new = ffi::RLimit {
        cur: want.min(lim.max),
        max: lim.max,
    };
    // SAFETY: `new` is a live RLimit; only the soft limit changes and it
    // never exceeds the hard limit.
    cvt(unsafe { ffi::setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(new.cur)
}

/// Latched by the termination handler; the handler does nothing else
/// (a relaxed-to-SeqCst atomic store is async-signal-safe — no locks, no
/// allocation).
static TERMINATION_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn mark_termination(_signum: c_int) {
    TERMINATION_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Install a SIGTERM/SIGINT handler that latches a flag for
/// [`termination_requested`] instead of killing the process — the hook a
/// long-running server needs to drain gracefully. glibc's `signal` gives
/// BSD semantics (handler stays installed, syscalls restart), so the
/// accept loop keeps running while the main thread notices the flag.
pub fn install_termination_handler() -> io::Result<()> {
    for sig in [SIGTERM, SIGINT] {
        // SAFETY: the handler is an `extern "C" fn` that performs one
        // atomic store and returns — async-signal-safe.
        let prev = unsafe { ffi::signal(sig, mark_termination as *const () as usize) };
        if prev == SIG_ERR {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Whether a termination signal has arrived since
/// [`install_termination_handler`]. Never resets: termination is one-way.
pub fn termination_requested() -> bool {
    TERMINATION_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn set_nonblocking_makes_reads_would_block() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        set_nonblocking(accepted.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let err = std::io::Read::read(&mut accepted, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(stream);
    }

    #[test]
    fn socket_buffers_can_be_shrunk() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(stream.as_raw_fd(), 4096).unwrap();
        set_recv_buffer(stream.as_raw_fd(), 4096).unwrap();
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let cur = raise_nofile_limit(256).unwrap();
        assert!(cur >= 256, "soft nofile limit {cur} below request");
    }
}
