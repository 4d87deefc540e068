//! Every raw OS binding the daemon and the router use: `signal(2)`,
//! `epoll(7)`, `eventfd(2)` and `kill(2)`. The crate stays
//! dependency-free, so these are declared by hand instead of pulled from a
//! crate; only the thin safe wrappers below touch them.

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Mirror of `struct epoll_event`; packed on x86-64 (the kernel ABI packs
/// it there), naturally aligned elsewhere. Fields are only ever read by
/// value — never by reference — because of the packing.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Process-wide "a termination signal arrived" flag.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // The only async-signal-safe thing worth doing: set a flag the event
    // loop polls.
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT (ctrl-c) into a graceful drain instead of the
/// default immediate kill. Called once by the `serve` and `router`
/// binaries; safe to call more than once.
pub fn install_signal_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether a termination signal has arrived (see
/// [`install_signal_handlers`]).
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::Relaxed)
}

/// Ask process `pid` to drain and exit (SIGTERM).
pub fn terminate(pid: u32) {
    unsafe { kill(pid as i32, SIGTERM) };
}

/// Owned epoll instance. Registration errors surface as `io::Error`;
/// deregistration is implicit — closing a watched fd removes it (no fd in
/// this crate is ever duplicated).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Wait for readiness; `EINTR` (a signal landed) reports as zero
    /// events so the caller re-checks its stop flag.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            return 0;
        }
        n as usize
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Non-blocking `eventfd` that wakes an event loop from another thread:
/// writers bump the counter, the loop drains it.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    pub fn new() -> io::Result<WakeFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Signal the event loop. A full counter (`EAGAIN`) already means "a
    /// wake is pending", so errors are ignorable.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Reset the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}
