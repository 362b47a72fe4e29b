//! Thin epoll + eventfd wrappers for the reactor.
//!
//! The build environment has no `libc`/`mio`/`tokio`, so the two syscall
//! families the readiness loop needs are declared directly against the C
//! library every Rust binary on Linux already links. This is the only
//! module in the crate allowed to use `unsafe`; everything it exposes is a
//! safe, owned-fd API: [`Epoll`] (level-triggered interest registration and
//! waiting) and [`Waker`] (an eventfd other threads write to pull the
//! reactor out of `epoll_wait`).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Instant;

/// Readable readiness (or a peer that closed with data pending).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported, never masked.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Peer hung up both directions; always reported, never masked.
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// Kernel `struct epoll_event`. Packed on x86_64 (the kernel ABI differs
/// from natural C layout there); naturally aligned elsewhere.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

/// Kernel `struct epoll_event` (non-x86_64 layout).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    fn new(events: u32, token: u64) -> Self {
        EpollEvent { events, data: token }
    }

    /// The readiness bits reported for this event.
    pub(crate) fn events(&self) -> u32 {
        self.events // packed-field copy, not a reference
    }

    /// The registration token the event belongs to.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Converts a raw syscall return into an owned fd or the thread's errno.
fn owned_fd(ret: i32) -> io::Result<OwnedFd> {
    if ret < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just handed us this descriptor and nothing else
    // owns it; OwnedFd takes over closing it.
    #[allow(unsafe_code)]
    Ok(unsafe { OwnedFd::from_raw_fd(ret) })
}

/// An epoll instance. Registrations are level-triggered: a ready fd is
/// re-reported every wait until the readiness is consumed or the interest
/// mask is changed, which lets state transitions be plain `modify` calls
/// with no edge bookkeeping.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 reads no memory.
        #[allow(unsafe_code)]
        let ret = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        Ok(Epoll { fd: owned_fd(ret)? })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent::new(events, token);
        // SAFETY: `event` outlives the call; the kernel copies it out.
        #[allow(unsafe_code)]
        let ret = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest mask under `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Replaces the interest mask for an already-registered `fd`.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), events, token)
    }

    /// Removes `fd` from the interest set (dropping the fd does this too,
    /// but an explicit delete keeps spurious events out of the same tick).
    pub(crate) fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Waits until readiness or `deadline`, filling `events`. `None` waits
    /// indefinitely (a [`Waker`] is then the only way to return early).
    /// Returns the number of events written; 0 on timeout. EINTR retries.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        deadline: Option<Instant>,
    ) -> io::Result<usize> {
        loop {
            let timeout_ms: i32 = match deadline {
                None => -1,
                Some(d) => {
                    // Round up so a deadline 0.2 ms away sleeps 1 ms instead
                    // of spinning through 0 ms waits until it expires.
                    let remaining = d.saturating_duration_since(Instant::now());
                    remaining
                        .as_millis()
                        .saturating_add(u128::from(remaining.subsec_nanos() % 1_000_000 != 0))
                        .min(i32::MAX as u128) as i32
                }
            };
            let capacity = events.len().min(i32::MAX as usize) as i32;
            // SAFETY: `events` is a live, writable buffer of `capacity`
            // epoll_event slots; the kernel writes at most that many.
            #[allow(unsafe_code)]
            let ret = unsafe {
                epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), capacity, timeout_ms)
            };
            if ret >= 0 {
                return Ok(ret as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// An eventfd handler threads (and `Server::stop`) write to wake the
/// leading thread out of `epoll_wait`. Cloneable across threads; `wake` is
/// async-signal-safe cheap (one 8-byte write).
#[derive(Clone)]
pub(crate) struct Waker {
    file: std::sync::Arc<File>,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // SAFETY: eventfd reads no memory.
        #[allow(unsafe_code)]
        let ret = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        Ok(Waker { file: std::sync::Arc::new(File::from(owned_fd(ret)?)) })
    }

    /// Makes the reactor's next (or current) `epoll_wait` return.
    pub(crate) fn wake(&self) {
        let _ = (&*self.file).write_all(&1u64.to_ne_bytes());
    }

    /// Clears the pending wake count so level-triggered polling settles.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&*self.file).read(&mut buf);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

/// A zeroed event buffer for [`Epoll::wait`].
pub(crate) fn event_buffer(capacity: usize) -> Vec<EpollEvent> {
    vec![EpollEvent::new(0, 0); capacity]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn waker_wakes_and_drains() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll.add(&waker, EPOLLIN, 7).unwrap();
        let mut events = event_buffer(4);
        // Nothing pending: a short wait times out with no events.
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
        waker.wake();
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);
        // Level-triggered: still readable until drained.
        waker.drain();
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(&listener, EPOLLIN, 1).unwrap();
        let mut events = event_buffer(4);
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0, "no pending connection yet");

        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 1);

        // Mask the listener out; the pending connection no longer reports.
        epoll.modify(&listener, 0, 1).unwrap();
        let n = epoll.wait(&mut events, Some(Instant::now() + Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
        epoll.delete(&listener).unwrap();
        drop(client);
    }
}
