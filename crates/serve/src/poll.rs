//! Zero-dependency readiness polling for the event loops.
//!
//! This module wraps the three raw `epoll` syscalls plus `eventfd`
//! behind a tiny safe surface, declaring the symbols directly against
//! the C library that `std` already links — no `libc` crate. Those four
//! declarations are the crate's only platform split besides the early
//! return in `serve()`: off Linux they are stand-ins that fail, and
//! `serve()` refuses to start before any of them could run.
//!
//! Design notes:
//!
//! * **Level-triggered.** Edge-triggered epoll saves wakeups but makes
//!   a missed `EAGAIN` a silent stall; level-triggered keeps the loop
//!   honest and the readers still drain sockets fully per wakeup.
//! * **Tokens are opaque `u64`s** chosen by the caller and carried in
//!   `epoll_event.data`; the loop maps them back to connections.
//! * **[`WakeFd`] dedupes syscalls** with an atomic flag so a burst of
//!   shard completions costs one `write(2)` per quiet period, not one
//!   per reply.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::atomic::{AtomicBool, Ordering};

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EFD_CLOEXEC: c_int = 0x8_0000;
const EFD_NONBLOCK: c_int = 0x800;

/// `struct epoll_event` from `<sys/epoll.h>`. Packed on x86-64 (the
/// kernel ABI there omits the padding other architectures keep).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

#[cfg(not(target_os = "linux"))]
use no_epoll::*;

/// Stand-ins off Linux: every call fails, as a missing syscall would.
///
/// # Safety
///
/// None of them touches memory; they are `unsafe` only so that the
/// callers' `unsafe` blocks match the Linux declarations.
#[cfg(not(target_os = "linux"))]
mod no_epoll {
    use super::{c_int, c_uint, EpollEvent};

    pub unsafe fn epoll_create1(_: c_int) -> c_int {
        -1
    }
    pub unsafe fn epoll_ctl(_: c_int, _: c_int, _: c_int, _: *mut EpollEvent) -> c_int {
        -1
    }
    pub unsafe fn epoll_wait(_: c_int, _: *mut EpollEvent, _: c_int, _: c_int) -> c_int {
        -1
    }
    pub unsafe fn eventfd(_: c_uint, _: c_int) -> c_int {
        -1
    }
}

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// One readiness notification, decoded from the kernel's event mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The caller-chosen token registered with the file descriptor.
    pub token: u64,
    /// Data (or EOF/error — errors surface through `read`) is waiting.
    pub readable: bool,
    /// The socket can accept more bytes.
    pub writable: bool,
}

/// A level-triggered `epoll` instance plus its reusable event buffer.
pub(crate) struct Epoll {
    fd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | if want_write { EPOLLOUT } else { 0 },
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(self.fd, op, fd, arg) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for read readiness (plus write when `want_write`).
    pub fn add(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, want_write)
    }

    /// Re-arms `fd`, toggling write interest.
    pub fn modify(&self, fd: RawFd, token: u64, want_write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, want_write)
    }

    /// Deregisters `fd`. Errors are ignored — the descriptor is about
    /// to be closed, which deregisters it anyway.
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, false);
    }

    /// Waits up to `timeout_ms` for readiness, filling `out` with the
    /// decoded events (cleared first). An interrupted wait returns an
    /// empty set rather than an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let n = unsafe {
            epoll_wait(
                self.fd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for i in 0..n as usize {
            let raw = self.buf[i];
            let mask = raw.events;
            out.push(Event {
                token: raw.data,
                readable: mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed wakeup channel: shard workers poke the owning
/// event loop when a completion is queued, and the loop drains the
/// counter before reading its completion channel.
///
/// The `signaled` flag collapses redundant `write(2)` calls: only the
/// first wake after a drain pays the syscall. The loop must reset the
/// flag (inside [`WakeFd::drain`]) *before* reading its completion
/// channel so a racing producer either lands in the current drain or
/// re-signals the fd.
pub(crate) struct WakeFd {
    fd: RawFd,
    signaled: AtomicBool,
}

impl WakeFd {
    /// Creates a nonblocking close-on-exec eventfd.
    pub fn new() -> io::Result<WakeFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd {
            fd,
            signaled: AtomicBool::new(false),
        })
    }

    /// The raw descriptor, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Signals the owning loop. Deduped: only the first call after a
    /// drain issues a syscall.
    pub fn wake(&self) {
        if !self.signaled.swap(true, Ordering::SeqCst) {
            let one: u64 = 1;
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }
    }

    /// Consumes the pending signal (if any) and re-arms the dedupe
    /// flag. Call before draining the completion channel.
    pub fn drain(&self) {
        let mut val: u64 = 0;
        let _ = unsafe { read(self.fd, (&mut val as *mut u64).cast(), 8) };
        self.signaled.store(false, Ordering::SeqCst);
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wakefd_signals_epoll_and_dedupes() {
        let mut ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.raw(), 7, false).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no signal yet");

        wake.wake();
        wake.wake(); // deduped — still one pending event
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        wake.drain();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained — level-triggered fd is quiet");

        wake.wake();
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1, "re-armed after drain");
    }

    #[test]
    fn socket_readiness_reports_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 42, false).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "idle socket");

        client.write_all(b"ping").unwrap();
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Write interest on an empty send buffer fires immediately.
        ep.modify(server.as_raw_fd(), 42, true).unwrap();
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);

        ep.delete(server.as_raw_fd());
        client.write_all(b"more").unwrap();
        ep.wait(&mut events, 50).unwrap();
        assert!(events.is_empty(), "deregistered socket stays silent");
    }
}
