//! Raw Linux syscall bindings for the event loop: epoll and eventfd.
//!
//! The workspace is first-party/offline, so there is no `libc` crate —
//! but std already links the platform libc on Linux, and these five
//! symbols (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`,
//! `close`) have had a stable ABI since kernel 2.6.27. The module wraps
//! them in two RAII handles, [`Epoll`] and [`EventFd`], that own their
//! file descriptors and surface `std::io::Error`.
//!
//! One ABI trap worth naming: `struct epoll_event` is `__attribute__
//! ((packed))` on x86-64 (a 12-byte struct, so the u64 data sits at
//! offset 4), while every other architecture lays it out naturally.
//! [`EpollEvent`] mirrors that with a conditional `repr`.
//!
//! On non-Linux targets the same API exists but every constructor
//! returns `ErrorKind::Unsupported`: the crate still compiles there (the
//! clients and codecs are portable) and `Server::start` reports the error
//! — serving is Linux-only.



/// Readable / peer-closed / error / hangup / writable interest bits.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// One readiness event: interest bits plus the caller's token.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// One readiness event: interest bits plus the caller's token.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for sizing `wait` buffers.
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::EpollEvent;
    use std::io;
    use std::os::fd::RawFd;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance (owns the descriptor; closed on drop).
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers `fd` with the given interest bits; `token` comes back
        /// verbatim in [`Epoll::wait`] events.
        pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, token)
        }

        /// Changes an existing registration's interest bits.
        pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, token)
        }

        /// Removes a registration (safe to call on an already-closed fd's
        /// old number only before anything reuses it — callers deregister
        /// before dropping the socket).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` (-1 = forever) for readiness; fills
        /// `buf` and returns the count. EINTR retries internally.
        pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let n = unsafe {
                    epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    /// A nonblocking eventfd: how another thread makes an event loop's
    /// `epoll_wait` return (a dealt socket, or shutdown).
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(EventFd { fd })
        }

        /// The descriptor to register with an [`Epoll`].
        pub fn raw(&self) -> RawFd {
            self.fd
        }

        /// Adds 1 to the counter, making the fd readable. A full counter
        /// (EAGAIN) already guarantees a pending wakeup, so it is ignored.
        pub fn signal(&self) {
            let one = 1u64.to_ne_bytes();
            unsafe { write(self.fd, one.as_ptr(), 8) };
        }

        /// Consumes the counter so the fd goes quiet until the next
        /// [`EventFd::signal`]. EAGAIN (already drained) is fine.
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::EpollEvent;
    use std::io;
    use std::os::fd::RawFd;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "epoll requires Linux"))
    }

    /// Stub: compiles everywhere, constructs nowhere but Linux.
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            unsupported()
        }
        pub fn add(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
            unsupported()
        }
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&self, _buf: &mut [EpollEvent], _timeout_ms: i32) -> io::Result<usize> {
            unsupported()
        }
    }

    /// Stub: compiles everywhere, constructs nowhere but Linux.
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            unsupported()
        }
        pub fn raw(&self) -> RawFd {
            -1
        }
        pub fn signal(&self) {}
        pub fn drain(&self) {}
    }
}

pub use imp::{Epoll, EventFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_signals_through_epoll() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), EPOLLIN, 42).unwrap();

        // Quiet eventfd: wait times out with no events.
        let mut buf = [EpollEvent::zeroed(); 8];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        efd.signal();
        efd.signal(); // coalesces into one readable state
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = buf[0];
        let (data, events) = (ev.data, ev.events);
        assert_eq!(data, 42);
        assert_ne!(events & EPOLLIN, 0);

        // Drained, it goes quiet again.
        efd.drain();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn socket_readability_and_token_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        let token = 0xDEAD_BEEF_0000_0001;
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token).unwrap();

        let mut buf = [EpollEvent::zeroed(); 8];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "no data yet");

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = buf[0];
        let (data, events) = (ev.data, ev.events);
        assert_eq!(data, token);
        assert_ne!(events & EPOLLIN, 0);

        // Peer close raises RDHUP/ HUP-flavoured readability.
        drop(client);
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        let events = buf[0].events;
        assert_ne!(events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP), 0);

        ep.delete(server_side.as_raw_fd()).unwrap();
        // Deleted registrations never fire again.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }
}
