//! The reactor backend: the loopback-TCP ring on one event-loop thread.
//!
//! This is the event-loop socket engine behind [`ReactorRingDriver`]. It
//! speaks exactly the wire protocol of [`crate::frame`] — port-0
//! listeners, seeded hello handshakes, `[kind][len][body]` frames — and
//! sits under the same `Coordinator` as [`crate::tcp_backend`], but
//! replaces the blocking engine's thread-per-endpoint concurrency model
//! with a single reactor thread that owns every socket:
//!
//! * **Readiness, not threads** — all sockets are nonblocking and
//!   registered with an epoll instance reached through a minimal vendored
//!   syscall shim (no libc dependency; a portable readiness-sweep
//!   fallback keeps non-Linux targets building). A readable socket is
//!   read in 16 KiB chunks into the incremental [`FrameDecoder`], which
//!   copies each envelope's payload into a buffer from the ring's shared
//!   `FrameBufPool`; decoded frames reach the coordinator on the spot, the
//!   payload keeping that buffer as its wire bytes.
//! * **Backpressure as queue depth** — a transmit frames the envelope (a
//!   fresh 57-byte header ahead of the payload's wire bytes: the bytes a
//!   fragment was prepared in, or an owned payload's encoded here on its
//!   first attempt, at the origin; the bytes it arrived in on every
//!   forward and retransmission — see [`crate::frame`]) and lands it on
//!   the connection's pending-write queue. The reactor writes header and
//!   payload in one vectored write as far as the kernel accepts;
//!   `WouldBlock` parks the frame at its exact byte offset and arms
//!   write-readiness. The protocol's wire-free credit (`SendDone`) is
//!   reported only when the kernel accepted the last byte, so a full
//!   socket buffer holds send credit exactly like the blocking driver's
//!   blocked write.
//! * **No timer of its own** — between readiness rounds the loop fires
//!   what is due on the coordinator's timer queue (protocol backoffs,
//!   fault- and rescale-plan instants) and flushes the connections whose
//!   delayed head frame is due (a second queue of the same type). The
//!   epoll timeout is the earliest of both queues' next deadlines and
//!   what is left of the stall watchdog.
//! * **The join pool, for the visits that need one** — a join callback
//!   that runs for hundreds of microseconds must not stall every socket,
//!   so it runs on the join pool every wall-clock engine shares
//!   (`wall_clock::WorkerPool`: sized to the machine, not the ring, one
//!   job of a host at a time), and completions wake the reactor through a
//!   loopback wake socket (`Doorbell`). A visit that costs less than the
//!   hand-off does not take it — see below.
//!
//! The thread count is therefore `1 + min(hosts, cores)` plus nothing per
//! connection — a 64-host ring that costs the blocking driver hundreds of
//! threads runs here on a handful, and a 256-host ring (ring-neighbor
//! mesh; full meshes are only built when a fault or rescale plan needs
//! healing routes) stays inside the same budget.
//!
//! Crash semantics are byte-identical to the blocking driver: a scheduled
//! crash queues a write-side FIN *behind* the host's pending frames (an
//! attempt whose fate was reported live must still arrive), the dead
//! host's read side stays open as the salvage path, and healing, rescale
//! and the retransmission protocol run unchanged. The four-way parity
//! suite pins this backend's fault counters to the sim, thread and
//! blocking-TCP backends.
//!
//! # Cheap visits run on the reactor thread
//!
//! A pool round trip is a submit under a mutex, a `Condvar` wake of a
//! parked worker, the callback, a completion pushed on a second mutex, a
//! byte on the wake socket and one more `epoll_wait` + `recv` on the
//! reactor: two context switches around a 128-tuple probe that takes
//! 0.5 µs. With small fragments that hand-off, not the protocol, was
//! most of a hop (560–770 `Condvar` waits and ≈ 200 `epoll_wait`s per
//! 2 048-visit run, against 24–35 and ≈ 120 without it; the run fell
//! from ≈ 21 ms to ≈ 11 ms). So `Medium::start` runs a `Job::Join`
//! through the same guarded `run_job` *on the reactor thread* and queues
//! its completion as a follow-up event when
//!
//! 1. the host has no job in the pool (submitted and not yet popped off
//!    the completion queue) — per-host FIFO serialization is kept, and
//! 2. that host's previous visit, on either path, took less than
//!    `INLINE_VISIT_MAX` (5 µs).
//!
//! A host's first visit, every `Job::Absorb` (a stationary-state rebuild
//! is never cheap) and whatever follows a slow visit go to the pool as
//! before, and the pool's verdict on that visit decides the next one, so
//! a host whose work turns heavy leaves the reactor thread after one
//! visit and one whose work turns light returns after one. The decision
//! is counted (`HostMetrics::visits_inline`, span counter
//! `visits_inline`), not configured: 2 016–2 036 of the 2 048 visits of
//! the 8 × 32 × 128-tuple benchmark shape run inline, 0 of the 64 of the
//! 4 × 4 × 32 768-tuple one — always-inline would serialize those four
//! hosts' joins on one core.
//!
//! The threshold is a constant on purpose. Two estimators of "what the
//! hand-off costs right now" were tried while sizing the rule and both
//! failed: the minimum of (submit → completion handled − time spent in
//! the callback) read 65–80 µs cold and once 637 µs while the reactor was
//! busy decoding 384 KiB frames, and inlined 60 of 64 heavy joins; the
//! minimum worker-side dispatch latency read 0.6–0.7 µs whenever a worker
//! happened to be awake, and inlined 13–27 of 2 048 light ones. The cost
//! of a hand-off depends on what the *other* threads are doing; the cost
//! of the previous visit does not.

use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, PoisonError};
use std::thread;
use std::time::Duration;

use simnet::event::EventQueue;
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::SpanTracer;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::coordinator::{Coordinator, Done, Event, Job, JobDone, Medium, Pending, Sent, Workload};
use crate::envelope::Envelope;
use crate::error::RingError;
use crate::frame::{
    build_mesh_pairs, mesh_seed, socket_err, unwritten, FrameBufPool, FrameDecoder, OutFrame,
    WirePayload,
};
use crate::inflight::{map_payloads, Batches, InFlight, Visit};
use crate::metrics::RingMetrics;
use crate::protocol::teardown;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;
use crate::wall_clock::{run_job, WallClock, WallClockDriver, WallClockEngine, WorkerPool};

/// Poll token of the worker-pool wake socket (never a connection index).
const WAKE_TOKEN: usize = usize::MAX;

/// How long one fallback readiness sweep pauses when nothing was ready,
/// bounding the sweep loop's spin without epoll's blocking wait.
const SWEEP_PAUSE: Duration = Duration::from_micros(500);

/// A host whose previous visit took less than this runs its next one on
/// the reactor thread instead of in the worker pool (module header,
/// "Cheap visits run on the reactor thread").
///
/// Of the order of what the reactor itself spends on one frame (recv,
/// decode, protocol input, header, writev: ≈ 3 µs of
/// `roundabout.reactor.hop_us`), so an inline visit delays the other
/// sockets by no more than one more frame would. The populations it
/// separates are far apart — a 128-tuple probe takes ≈ 0.5 µs, a
/// 32 768-tuple one 250–400 µs — and 20 µs decides every visit of both
/// benchmark shapes exactly as 5 µs does.
const INLINE_VISIT_MAX: Duration = Duration::from_micros(5);

// ---------------------------------------------------------------------------
// Vendored epoll shim (Linux; raw syscalls, no libc)
// ---------------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! The four raw syscalls the reactor needs on Linux, vendored the way
    //! `third_party/loom` vendors its shims: numbers and ABI straight
    //! from the kernel headers, no libc crate in between.

    use std::arch::asm;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: usize = 0o2000000;
    const EINTR: isize = -4;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_WAIT: usize = 232;
        pub const CLOSE: usize = 3;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        /// aarch64 has no plain `epoll_wait`; `epoll_pwait` with a null
        /// sigmask is the same call.
        pub const EPOLL_WAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    /// `struct epoll_event`. Packed on x86_64 (the kernel ABI there has
    /// no padding between `events` and `data`), naturally aligned on
    /// aarch64.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(target_arch = "aarch64", repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        // SAFETY: the x86_64 Linux syscall ABI — number in rax, args in
        // rdi/rsi/rdx/r10, rcx/r11 clobbered. Every call site passes
        // pointers that live across the call and lengths that match them.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        // SAFETY: the aarch64 Linux syscall ABI — number in x8, args in
        // x0..x5, result in x0. x4/x5 are zeroed so `epoll_pwait` sees a
        // null sigmask. Every call site passes pointers that live across
        // the call and lengths that match them.
        unsafe {
            asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") 0usize,
                in("x5") 0usize,
                options(nostack),
            );
        }
        ret
    }

    /// An owned epoll instance.
    pub struct Epoll {
        epfd: i32,
    }

    impl Epoll {
        /// A fresh epoll instance, or `None` when the kernel refuses
        /// (seccomp sandboxes, exotic kernels) — the caller falls back to
        /// readiness sweeps.
        pub fn new() -> Option<Epoll> {
            let fd = syscall4(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0);
            if fd < 0 {
                return None;
            }
            Some(Epoll { epfd: fd as i32 })
        }

        /// One `epoll_ctl` operation; `true` on success.
        pub fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> bool {
            let ev = EpollEvent { events, data };
            let ptr = if op == EPOLL_CTL_DEL {
                0usize
            } else {
                (&ev as *const EpollEvent) as usize
            };
            syscall4(
                nr::EPOLL_CTL,
                self.epfd as usize,
                op as usize,
                fd as usize,
                ptr,
            ) == 0
        }

        /// Blocks up to `timeout_ms` (-1 blocks indefinitely) and fills
        /// `events`; returns the ready count, 0 on timeout, negative
        /// errno on failure. `EINTR` retries internally.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> isize {
            loop {
                let n = syscall4(
                    nr::EPOLL_WAIT,
                    self.epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as isize as usize,
                );
                if n != EINTR {
                    return n;
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            let _ = syscall4(nr::CLOSE, self.epfd as usize, 0, 0, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Poller: epoll when available, readiness sweeps otherwise
// ---------------------------------------------------------------------------

/// What one poll round produced.
enum Wait {
    /// Readiness events were collected into the caller's buffer.
    Ready,
    /// The timeout elapsed with nothing ready.
    Idle,
    /// No readiness facility: the caller should sweep every connection
    /// with nonblocking reads/writes (each bounded by `WouldBlock`).
    Sweep,
}

/// The readiness source. Epoll owns an interest list keyed by token; the
/// fallback has no kernel-side state at all — `wait` just paces the sweep.
enum Poller {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Epoll {
        ep: sys::Epoll,
        /// Interest mask currently registered per token.
        masks: HashMap<usize, u32>,
        buf: Vec<sys::EpollEvent>,
        /// A failed `epoll_ctl` degrades the whole poller to sweeps: a
        /// half-registered interest list would silently starve sockets.
        degraded: bool,
    },
    Fallback,
}

impl Poller {
    fn new() -> Poller {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Some(ep) = sys::Epoll::new() {
            return Poller::Epoll {
                ep,
                masks: HashMap::new(),
                buf: vec![sys::EpollEvent::default(); 128],
                degraded: false,
            };
        }
        Poller::Fallback
    }

    /// Reconciles the kernel's interest in `stream` with what the caller
    /// wants to hear about (ADD/MOD/DEL as the delta demands).
    fn update(&mut self, stream: &TcpStream, token: usize, readable: bool, writable: bool) {
        match self {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Poller::Epoll {
                ep,
                masks,
                degraded,
                ..
            } => {
                use std::os::fd::AsRawFd;
                let mask = (if readable {
                    sys::EPOLLIN | sys::EPOLLRDHUP
                } else {
                    0
                }) | (if writable { sys::EPOLLOUT } else { 0 });
                let fd = stream.as_raw_fd();
                let ok = match (masks.get(&token).copied(), mask) {
                    (None, 0) => true,
                    (None, m) => {
                        masks.insert(token, m);
                        ep.ctl(sys::EPOLL_CTL_ADD, fd, m, token as u64)
                    }
                    (Some(_), 0) => {
                        masks.remove(&token);
                        ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, token as u64)
                    }
                    (Some(prev), m) if prev == m => true,
                    (Some(_), m) => {
                        masks.insert(token, m);
                        ep.ctl(sys::EPOLL_CTL_MOD, fd, m, token as u64)
                    }
                };
                if !ok {
                    *degraded = true;
                }
            }
            Poller::Fallback => {
                let _ = (stream, token, readable, writable);
            }
        }
    }

    /// One poll round. `out` receives `(token, readable, writable)`
    /// triples on [`Wait::Ready`]. Error/hangup conditions are folded
    /// into both directions so the owner discovers them with a
    /// nonblocking read/write (which classifies them properly).
    fn wait(&mut self, timeout: Duration, out: &mut Vec<(usize, bool, bool)>) -> Wait {
        out.clear();
        match self {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Poller::Epoll {
                ep,
                buf,
                degraded: false,
                ..
            } => {
                let ms = if timeout.is_zero() {
                    0
                } else {
                    timeout.as_millis().clamp(1, i32::MAX as u128) as i32
                };
                let n = ep.wait(buf, ms);
                if n <= 0 {
                    return Wait::Idle;
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the (possibly packed) struct by value;
                    // references into it would be unaligned.
                    let events = ev.events;
                    let data = ev.data;
                    let err = events & (sys::EPOLLERR | sys::EPOLLHUP);
                    let readable = events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 || err != 0;
                    let writable = events & sys::EPOLLOUT != 0 || err != 0;
                    out.push((data as usize, readable, writable));
                }
                Wait::Ready
            }
            _ => {
                if !timeout.is_zero() {
                    thread::sleep(timeout.min(SWEEP_PAUSE));
                }
                Wait::Sweep
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state: one nonblocking socket + its pending-write queue
// ---------------------------------------------------------------------------

/// A queued write. `Sever` orders *behind* pending frames, so a crash's
/// FIN goes out only after every already-committed byte flushed — the
/// same contract as the blocking driver's writer queue.
enum OutJob<P> {
    Frame {
        frame: OutFrame<P>,
        /// Fault-plan delay spike: the frame may not touch the socket
        /// before this instant (and, FIFO queue, delays what's behind
        /// it), mirroring the blocking writer's sleep.
        not_before: Option<SimTime>,
        /// Host whose wire-free credit ([`Input::SendDone`]) this frame
        /// releases once the kernel accepted its last byte.
        notify: Option<HostId>,
    },
    Sever,
}

/// One mesh endpoint owned by the reactor: host `host`'s nonblocking
/// socket toward one peer, with its incremental decoder and pending-write
/// queue.
///
/// Invariants of the queue: jobs complete strictly in FIFO order;
/// `head_written` counts bytes of the *head* frame already accepted by
/// the kernel (reset to 0 when it completes); once `write_open` is false
/// every queued frame completes immediately as lost-on-the-medium (its
/// `SendDone` still fires — a dead peer is the retransmission protocol's
/// business, not backpressure).
struct Conn<P> {
    stream: TcpStream,
    host: usize,
    decoder: FrameDecoder,
    outq: VecDeque<OutJob<P>>,
    head_written: usize,
    read_open: bool,
    write_open: bool,
    /// The head of `outq` hit `WouldBlock`: write-readiness is needed.
    want_out: bool,
    /// Interest last registered with the poller (readable, writable).
    registered: (bool, bool),
}

impl<P> Conn<P> {
    /// Host `host`'s end of `stream`, decoding envelope bodies into
    /// buffers from `pool`.
    fn new(stream: TcpStream, host: usize, pool: Arc<FrameBufPool>) -> Conn<P> {
        Conn {
            stream,
            host,
            decoder: FrameDecoder::with_pool(pool),
            outq: VecDeque::new(),
            head_written: 0,
            read_open: true,
            write_open: true,
            want_out: false,
            registered: (false, false),
        }
    }

    /// Reads what the socket holds into the decoder, in 16 KiB chunks;
    /// the caller pulls the completed frames. Stops at `WouldBlock` or at
    /// a read that came back short of the chunk — that read emptied the
    /// socket, and readiness is level-triggered (so is the fallback
    /// sweep), so whatever arrives next, EOF included, is reported again;
    /// asking once more only to be told `WouldBlock` doubled the `read`
    /// calls of a small-frame run. EOF or a socket error closes the read
    /// side (the connection is gone — the reliable transport repairs
    /// whatever was in flight).
    fn pump_read(&mut self) {
        if !self.read_open {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_open = false;
                    return;
                }
                Ok(n) => {
                    self.decoder.feed(chunk.get(..n).unwrap_or_default());
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_open = false;
                    return;
                }
            }
        }
    }

    /// Flushes the pending-write queue as far as the kernel accepts,
    /// each frame's header and payload in one vectored write. A completed
    /// frame is dropped (its payload's last holder returns the bytes to
    /// the pool) and its `notify` handed to `released`, so the caller can
    /// free the send credit. Returns the head frame's release instant
    /// when it is still embargoed by a delay spike (the caller arms a
    /// timer for it).
    fn pump_write(
        &mut self,
        clock: WallClock,
        mut released: impl FnMut(Option<HostId>),
    ) -> Option<SimTime> {
        self.want_out = false;
        loop {
            let job = self.outq.pop_front()?;
            match job {
                OutJob::Frame {
                    frame,
                    not_before,
                    notify,
                } => {
                    if self.write_open {
                        if let Some(release) = not_before {
                            if release > clock.now() {
                                self.outq.push_front(OutJob::Frame {
                                    frame,
                                    not_before,
                                    notify,
                                });
                                return Some(release);
                            }
                        }
                    }
                    let parts = frame.parts();
                    let len = parts.iter().map(|p| p.len()).sum::<usize>();
                    let mut blocked = false;
                    while self.write_open && self.head_written < len {
                        let mut slices = [IoSlice::new(&[]); 2];
                        let used = unwritten(parts.into_iter(), self.head_written, &mut slices);
                        match self
                            .stream
                            .write_vectored(slices.get(..used).unwrap_or_default())
                        {
                            Ok(0) => self.write_open = false,
                            Ok(n) => self.head_written = self.head_written.saturating_add(n),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                blocked = true;
                                break;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            // The peer is gone: this frame (and everything
                            // queued behind it) is lost on the medium; the
                            // reliable transport's timeout repairs it.
                            Err(_) => self.write_open = false,
                        }
                    }
                    if blocked {
                        self.want_out = true;
                        self.outq.push_front(OutJob::Frame {
                            frame,
                            not_before,
                            notify,
                        });
                        return None;
                    }
                    // Fully written, or lost with the write side: either
                    // way the frame left the sender's hands and its wire
                    // credit comes free.
                    self.head_written = 0;
                    drop(frame);
                    released(notify);
                }
                OutJob::Sever => {
                    let _ = self.stream.shutdown(Shutdown::Write);
                    self.write_open = false;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The pool's completions and the wake socket
// ---------------------------------------------------------------------------

/// How the join pool's completions reach the reactor: a pool thread
/// queues its completion and pokes the reactor out of its poll wait, and
/// an armed flag keeps the wake channel at one pending poke however many
/// completions pile up. The poke is the wake socket's byte in a run, and
/// whatever the loom model stands in for it.
///
/// Why no completion is stranded: the reactor drains its pokes and
/// disarms ([`Doorbell::answer`]), then pops until the queue is empty,
/// and only then waits again. A completion pushed before that last pop is
/// popped. One pushed after it was pushed after the disarm, so its
/// thread's `swap(true)` reads the disarmed `false` — or a `true` set
/// after the disarm by a thread that poked — and a poke follows either
/// way. Disarming after popping instead would let a completion pushed
/// between the last pop and the disarm read the stale `true`, poke no
/// one, and wait forever (the loom test below fails exactly that). The
/// order between a push and the disarm comes from the queue's mutex; a
/// swap reads the flag's latest value whatever its ordering.
pub(crate) struct Doorbell<K> {
    done: Mutex<VecDeque<JobDone>>,
    /// A poke is already in flight; cleared by [`Doorbell::answer`].
    armed: AtomicBool,
    poke: K,
}

impl<K: Fn()> Doorbell<K> {
    pub(crate) fn new(poke: K) -> Self {
        Doorbell {
            done: Mutex::new(VecDeque::new()),
            armed: AtomicBool::new(false),
            poke,
        }
    }

    /// A pool thread's hand-off: publish the completion, then poke the
    /// reactor unless a poke is already in flight.
    pub(crate) fn ring(&self, done: JobDone) {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(done);
        if !self.armed.swap(true, Ordering::AcqRel) {
            (self.poke)();
        }
    }

    /// The reactor's answer to a poke: `drain` every poke that arrived,
    /// then re-enable pokes. The reactor pops only after this.
    pub(crate) fn answer(&self, drain: impl FnOnce()) {
        drain();
        self.armed.store(false, Ordering::Release);
    }

    pub(crate) fn pop(&self) -> Option<JobDone> {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

// ---------------------------------------------------------------------------
// The medium: every socket and the join pool
// ---------------------------------------------------------------------------

/// The reactor's [`Medium`]: nonblocking writes as far as the kernel
/// accepts, and pool jobs. Send credits a write frees on the spot land on
/// the coordinator's follow-up queue.
struct Sockets<'a, P, F, A> {
    conns: Vec<Conn<P>>,
    /// `lanes[from][to]` is the token of `from`'s connection toward `to`.
    lanes: Vec<Vec<Option<usize>>>,
    poller: Poller,
    /// Connections to flush again once their head frame's delay-spike
    /// embargo ends; a token may be armed more than once, and a flush
    /// with nothing due is a no-op.
    embargoes: EventQueue<usize>,
    clock: WallClock,
    /// Payload buffers, shared with every connection's decoder: bodies
    /// are read into them, origins encode into them, and a payload's last
    /// holder returns them.
    pool: Arc<FrameBufPool>,
    workers: &'a WorkerPool<P>,
    /// Join threads per host: a visit's compute is its time on each.
    threads: usize,
    visit: &'a F,
    absorb: &'a A,
    /// Jobs of each host submitted to `workers` whose completion the
    /// reactor has not popped yet.
    in_pool: Vec<usize>,
    /// What each host's latest visit cost, on either path; `None` until
    /// its first one completes.
    last_visit: Vec<Option<Duration>>,
}

impl<P, F, A> Sockets<'_, P, F, A> {
    /// Books a completion popped off the worker pool's queue.
    fn pooled_done(&mut self, done: &JobDone) {
        if let Some(n) = self.in_pool.get_mut(done.host.0) {
            *n = n.saturating_sub(1);
        }
        self.note_visit_cost(done);
    }

    fn note_visit_cost(&mut self, done: &JobDone) {
        if let (Done::Join { .. }, Some(last)) = (&done.what, self.last_visit.get_mut(done.host.0))
        {
            *last = Some(done.spent.into());
        }
    }

    /// Reconciles the poller's interest in connection `t` with its state:
    /// readable while the read side lives, writable only while a blocked
    /// frame actually waits (level-triggered `EPOLLOUT` on an idle socket
    /// would spin the loop).
    fn sync_interest(&mut self, t: usize) {
        let Some(conn) = self.conns.get_mut(t) else {
            return;
        };
        let desired = (conn.read_open, conn.want_out && conn.write_open);
        if desired == conn.registered {
            return;
        }
        conn.registered = desired;
        self.poller.update(&conn.stream, t, desired.0, desired.1);
    }

    /// Flushes connection `t`'s pending-write queue, queueing the freed
    /// send credits.
    fn flush_conn(&mut self, t: usize, next: &mut Pending<P>) {
        let Some(conn) = self.conns.get_mut(t) else {
            return;
        };
        let embargo = conn.pump_write(self.clock, |notify| {
            if let Some(from) = notify {
                next.now.push_back(Event::SendDone { from });
            }
        });
        if let Some(release) = embargo {
            self.embargoes.push(release, t);
        }
        self.sync_interest(t);
    }

    /// Queues one frame on the `from → to` lane and flushes as far as the
    /// kernel allows right away.
    fn enqueue_frame(
        &mut self,
        from: HostId,
        to: HostId,
        frame: OutFrame<P>,
        not_before: Option<SimTime>,
        notify: Option<HostId>,
        next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        let lane = self
            .lanes
            .get(from.0)
            .and_then(|row| row.get(to.0))
            .copied()
            .flatten();
        let Some(t) = lane else {
            return Err(RingError::Teardown(teardown::TX_GONE));
        };
        if let Some(conn) = self.conns.get_mut(t) {
            conn.outq.push_back(OutJob::Frame {
                frame,
                not_before,
                notify,
            });
        }
        self.flush_conn(t, next);
        Ok(())
    }
}

impl<P, F, A> Medium<P> for Sockets<'_, P, F, A>
where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
{
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: SimDuration,
        next: &mut Pending<P>,
    ) -> Result<Sent, RingError> {
        let not_before = (delay > SimDuration::ZERO).then(|| self.now().saturating_add(delay));
        let (frame, first) = OutFrame::envelope(tid, env, &self.pool)?;
        self.enqueue_frame(from, to, frame, not_before, Some(from), next)?;
        Ok(if first {
            Sent::Encoded
        } else {
            Sent::Forwarded
        })
    }

    fn ack(
        &mut self,
        at: HostId,
        to: HostId,
        tid: u64,
        next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        self.enqueue_frame(at, to, OutFrame::ack(tid), None, None, next)
    }

    /// A join whose host has nothing in the pool and whose previous visit
    /// was cheaper than [`INLINE_VISIT_MAX`] runs right here, through the
    /// same guarded `run_job`, and completes as a follow-up; a host's
    /// first visit, every absorb and whatever follows a slow visit go to
    /// the pool. Either way one host's jobs never overlap and run in
    /// submission order.
    fn start(&mut self, host: HostId, job: Job<P>, next: &mut Pending<P>) -> Result<(), RingError> {
        let idle = self.in_pool.get(host.0) == Some(&0);
        let cheap = matches!(self.last_visit.get(host.0), Some(Some(d)) if *d < INLINE_VISIT_MAX);
        if idle && cheap && matches!(job, Job::Join { .. }) {
            let done = JobDone {
                inline: true,
                ..run_job(host, job, self.threads, self.visit, self.absorb)
            };
            self.note_visit_cost(&done);
            next.now.push_back(Event::Job(done));
        } else {
            if let Some(n) = self.in_pool.get_mut(host.0) {
                *n += 1;
            }
            self.workers.submit(host.0, job);
        }
        Ok(())
    }

    /// Queues a write-side FIN behind every pending frame of `host`'s
    /// outgoing connections; the read sides stay open (the salvage path
    /// of a crashed host).
    fn sever(&mut self, host: HostId, next: &mut Pending<P>) {
        let tokens: Vec<usize> = self
            .lanes
            .get(host.0)
            .map(|row| row.iter().copied().flatten().collect())
            .unwrap_or_default();
        for t in tokens {
            if let Some(conn) = self.conns.get_mut(t) {
                conn.outq.push_back(OutJob::Sever);
            }
            self.flush_conn(t, next);
        }
    }

    fn launch(&self, batches: Batches<P>) -> Batches<InFlight<P>> {
        map_payloads(batches, |payload| InFlight::launch(&self.pool, payload))
    }
}

/// Drains connection `t`'s readable bytes and hands every decoded frame
/// to the coordinator as it comes out of the decoder. Undecodable bytes
/// are fatal to the run, exactly as in the blocking driver — after the
/// frames ahead of them.
fn drain_read<P, F, A>(co: &mut Coordinator<'_, P, Sockets<'_, P, F, A>>, t: usize)
where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
{
    let at = match co.medium.conns.get_mut(t) {
        Some(conn) => {
            conn.pump_read();
            HostId(conn.host)
        }
        None => return,
    };
    co.medium.sync_interest(t);
    while !co.done() {
        let Some(conn) = co.medium.conns.get_mut(t) else {
            break;
        };
        match conn.decoder.next_in_flight::<P>() {
            Ok(Some(frame)) => co.handle(Event::Frame { at, frame }),
            Ok(None) => break,
            Err(e) => {
                co.fail(RingError::Frame(e));
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ring assembly and the event loop
// ---------------------------------------------------------------------------

/// The readiness loop, until the run is done: the coordinator's
/// synchronous backlog and the pool's completions first, then due
/// embargoes and timers, and only then one poll wait.
fn event_loop<P, F, A, K>(
    co: &mut Coordinator<'_, P, Sockets<'_, P, F, A>>,
    doorbell: &Doorbell<K>,
    mut wake_rx: &TcpStream,
) where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
    K: Fn(),
{
    let mut ready: Vec<(usize, bool, bool)> = Vec::new();
    let mut wake_buf = [0u8; 64];
    // Reads every wake byte the pool's pokes left.
    let mut drain_wake = || {
        while matches!(wake_rx.read(&mut wake_buf), Ok(1..)) {}
    };
    while !co.done() {
        // Synchronous backlog first: follow-ups (freed send credits), then
        // pool completions, then due embargoes and timers — only then does
        // the loop pay for a kernel wait.
        let backlog = co.pending.now.pop_front().or_else(|| {
            let done = doorbell.pop()?;
            co.medium.pooled_done(&done);
            Some(Event::Job(done))
        });
        if let Some(event) = backlog {
            co.handle(event);
            continue;
        }
        let now = co.medium.now();
        if let Some((_, t)) = co.medium.embargoes.pop_due(now) {
            co.medium.flush_conn(t, &mut co.pending);
            continue;
        }
        let Some(mut timeout) = co.fire_or_wait(now) else {
            continue;
        };
        if let Some(release) = co.medium.embargoes.peek_time() {
            timeout = timeout.min(release.saturating_duration_since(now).into());
        }
        match co.medium.poller.wait(timeout, &mut ready) {
            Wait::Ready => {
                for &(token, readable, writable) in ready.iter() {
                    if co.done() {
                        break;
                    }
                    if token == WAKE_TOKEN {
                        doorbell.answer(&mut drain_wake);
                        continue;
                    }
                    if writable {
                        co.medium.flush_conn(token, &mut co.pending);
                    }
                    if readable {
                        drain_read(co, token);
                    }
                }
            }
            Wait::Sweep => {
                doorbell.answer(&mut drain_wake);
                for t in 0..co.medium.conns.len() {
                    if co.done() {
                        break;
                    }
                    let wants = co
                        .medium
                        .conns
                        .get(t)
                        .is_some_and(|c| c.want_out && c.write_open && !c.outq.is_empty());
                    if wants {
                        co.medium.flush_conn(t, &mut co.pending);
                    }
                    drain_read(co, t);
                }
            }
            Wait::Idle => {}
        }
    }
}

/// The single-threaded readiness-loop socket engine.
#[derive(Debug, Clone, Copy)]
pub struct ReactorEngine;

/// Builder for an event-loop ring run over loopback TCP — the single
/// entry point of this backend: [`crate::TcpRingDriver`]'s builder and
/// semantics, with one reactor thread owning every socket.
///
/// ```
/// use data_roundabout::{ReactorRingDriver, RingConfig};
///
/// // Three hosts, two fragments each, over one nonblocking event loop.
/// let fragments: Vec<Vec<Vec<u8>>> =
///     (0..3).map(|_| vec![vec![0u8; 64]; 2]).collect();
/// let (metrics, _spans) = ReactorRingDriver::new(&RingConfig::paper(3))
///     .run(fragments, |_, _| {})
///     .unwrap();
/// assert_eq!(metrics.fragments_completed, 6);
/// ```
pub type ReactorRingDriver<'a> = WallClockDriver<'a, ReactorEngine>;

impl WallClockEngine for ReactorEngine {
    const HOST_FAULTS: bool = true;

    fn run_mesh<P, F, A>(
        config: &RingConfig,
        plan: Option<&FaultPlan>,
        rescale: Option<&RescalePlan>,
        trace: bool,
        workload: Workload<P>,
        visit: &F,
        absorb: &A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, u32, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        let n = config.hosts;
        // Healing and rescale can route any surviving pair, so plans need
        // the full mesh; classic plan-free runs only ever use
        // ring-neighbor hops, and a neighbor-only mesh keeps a 256-host
        // ring inside the process fd budget (n sockets instead of n²/2).
        let full_mesh = plan.is_some();
        let mesh = build_mesh_pairs(
            n,
            mesh_seed(plan),
            Duration::from(config.handshake_timeout),
            |a, b| full_mesh || b == a + 1 || (a == 0 && b == n - 1),
        )?;

        // The wake channel: pool threads poke the reactor out of its poll
        // wait through one more loopback socket, registered like any other.
        let wake_listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(socket_err("bind wake listener"))?;
        let wake_addr = wake_listener
            .local_addr()
            .map_err(socket_err("resolve wake address"))?;
        let wake_tx = TcpStream::connect(wake_addr).map_err(socket_err("connect wake socket"))?;
        let (wake_rx, _) = wake_listener
            .accept()
            .map_err(socket_err("accept wake socket"))?;
        wake_rx
            .set_nonblocking(true)
            .map_err(socket_err("set wake socket nonblocking"))?;

        let pool = Arc::new(FrameBufPool::default());
        let mut conns = Vec::new();
        let mut lanes: Vec<Vec<Option<usize>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (h, row) in mesh.endpoints.into_iter().enumerate() {
            for (p, endpoint) in row.into_iter().enumerate() {
                if let Some(stream) = endpoint {
                    stream
                        .set_nonblocking(true)
                        .map_err(socket_err("set ring socket nonblocking"))?;
                    if let Some(slot) = lanes.get_mut(h).and_then(|r| r.get_mut(p)) {
                        *slot = Some(conns.len());
                    }
                    conns.push(Conn::new(stream, h, Arc::clone(&pool)));
                }
            }
        }

        let doorbell = Doorbell::new(move || {
            let _ = (&wake_tx).write_all(&[1u8]);
        });
        WorkerPool::run(
            n,
            config.join_threads,
            visit,
            absorb,
            |done| doorbell.ring(done),
            |workers| {
                let mut poller = Poller::new();
                poller.update(&wake_rx, WAKE_TOKEN, true, false);
                let mut sockets = Sockets {
                    conns,
                    lanes,
                    poller,
                    embargoes: EventQueue::new(),
                    clock: WallClock::start(),
                    pool,
                    workers,
                    threads: config.join_threads,
                    visit,
                    absorb,
                    in_pool: vec![0; n],
                    last_visit: vec![None; n],
                };
                for t in 0..sockets.conns.len() {
                    sockets.sync_interest(t);
                }
                let mut co = Coordinator::new(config, plan, rescale, workload, trace, sockets);

                event_loop(&mut co, &doorbell, &wake_rx);

                // Severing every socket lets any straggling peer bytes die on
                // the closed connections; the conns drop with the coordinator.
                for conn in &co.medium.conns {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                co.finish()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::FragmentId;
    use crate::frame::{encode_ack, encode_envelope, Frame};
    use crate::inflight::launch_owned;
    use crate::wall_clock::engine_suite::{self, payloads};

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reactor_completes_a_classic_revolution() {
        engine_suite::every_host_sees_every_fragment::<ReactorEngine>();
    }

    #[test]
    fn reactor_single_host_shares_the_local_path() {
        engine_suite::single_host_ring_needs_no_sockets::<ReactorEngine>();
    }

    #[test]
    fn reactor_validation_mirrors_the_blocking_driver() {
        engine_suite::shape_and_config_errors_are_typed::<ReactorEngine>();
        engine_suite::out_of_ring_faults_are_rejected::<ReactorEngine>();
    }

    #[test]
    fn reactor_all_standby_rescale_is_rejected() {
        engine_suite::all_standby_rescale_is_rejected::<ReactorEngine>();
    }

    #[test]
    fn reactor_survives_loss_and_corruption() {
        engine_suite::lossy_and_corrupt_links_are_repaired::<ReactorEngine>();
    }

    #[test]
    fn reactor_heals_a_mid_revolution_crash() {
        engine_suite::crash_heals_mid_revolution::<ReactorEngine>();
    }

    #[test]
    fn reactor_runs_a_planned_join_and_drain() {
        engine_suite::planned_join_and_drain::<ReactorEngine>();
    }

    #[test]
    fn reactor_drain_hands_its_role_off_exactly_once() {
        engine_suite::drain_hands_its_role_off_exactly_once::<ReactorEngine>();
    }

    #[test]
    fn wide_ring_completes_on_a_neighbor_mesh() {
        // 64 hosts, one fragment each: the wide-ring shape the blocking
        // driver cannot reach without hundreds of threads. Thread-count
        // accounting lives in the wide-ring exhibit binary (a test
        // process shares /proc counters with the whole harness).
        let config = RingConfig::paper(64);
        let (metrics, _spans) = ReactorRingDriver::new(&config)
            .run(payloads(64, 1, 16), |_, _| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 64);
        assert!(metrics.hosts.iter().all(|h| h.fragments_processed == 64));
    }

    fn conn<P>(stream: TcpStream) -> Conn<P> {
        Conn::new(stream, 0, Arc::default())
    }

    /// One readable wake-up: read what the socket holds, then pull every
    /// frame it completed.
    fn pump(conn: &mut Conn<Vec<u8>>, frames: &mut Vec<Frame<Vec<u8>>>) {
        conn.pump_read();
        while let Some(frame) = conn.decoder.next_frame().unwrap() {
            frames.push(frame);
        }
    }

    /// `env` framed for transfer `tid`, as its origin sends it.
    fn out_envelope(tid: u64, env: Envelope<Vec<u8>>) -> OutFrame<Vec<u8>> {
        let env = launch_owned(vec![vec![env]]).remove(0).remove(0);
        OutFrame::envelope(tid, env, &Arc::default()).unwrap().0
    }

    #[test]
    fn pump_read_reassembles_one_byte_arrivals() {
        let (mut tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        let mut conn = conn(rx);
        let env = Envelope::new(FragmentId(3), HostId(1), 4, vec![0xabu8; 100]);
        let mut wire = encode_envelope(9, &env).unwrap();
        wire.extend_from_slice(&encode_ack(17));

        let mut frames: Vec<Frame<Vec<u8>>> = Vec::new();
        for byte in wire {
            tx.write_all(&[byte]).unwrap();
            tx.flush().unwrap();
            // Pump after every single byte: partial frames must buffer
            // silently, never error.
            thread::sleep(Duration::from_micros(20));
            pump(&mut conn, &mut frames);
        }
        for _ in 0..1000 {
            if frames.len() == 2 {
                break;
            }
            pump(&mut conn, &mut frames);
            thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            frames.first(),
            Some(Frame::Envelope { tid: 9, env }) if env.id == FragmentId(3)
        ));
        assert!(matches!(frames.get(1), Some(Frame::Ack { tid: 17 })));
        assert!(conn.read_open);
    }

    #[test]
    fn pump_write_survives_short_writes_and_releases_credit_in_order() {
        let (tx, mut rx) = loopback_pair();
        tx.set_nonblocking(true).unwrap();
        let mut conn = conn(tx);
        // Enough bytes to overrun any loopback socket buffer, so the
        // kernel forces WouldBlock mid-frame — in the header's slice or
        // the payload's, wherever the kernel stops.
        let env = Envelope::new(FragmentId(1), HostId(0), 2, vec![0x5au8; 4 * 1024 * 1024]);
        let mut expected = encode_envelope(1, &env).unwrap();
        expected.extend_from_slice(&encode_ack(2));
        conn.outq.push_back(OutJob::Frame {
            frame: out_envelope(1, env),
            not_before: None,
            notify: Some(HostId(0)),
        });
        conn.outq.push_back(OutJob::Frame {
            frame: OutFrame::ack(2),
            not_before: None,
            notify: Some(HostId(1)),
        });

        let reader = thread::spawn(move || {
            let mut got = Vec::new();
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match rx.read(&mut chunk) {
                    Ok(0) => return got,
                    Ok(n) => got.extend_from_slice(chunk.get(..n).unwrap()),
                    Err(_) => return got,
                }
            }
        });

        let mut credits = Vec::new();
        let mut spins = 0usize;
        while credits.len() < 2 {
            assert!(conn
                .pump_write(WallClock::start(), |n| credits.push(n))
                .is_none());
            if conn.want_out {
                // The kernel said WouldBlock mid-frame: the head must
                // stay parked at its exact offset.
                assert!(!conn.outq.is_empty());
                thread::sleep(Duration::from_micros(200));
            }
            spins += 1;
            assert!(spins < 1_000_000, "pump_write made no progress");
        }
        assert!(conn.outq.is_empty());
        assert_eq!(credits, vec![Some(HostId(0)), Some(HostId(1))]);
        conn.stream.shutdown(Shutdown::Write).unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), expected.len());
        assert_eq!(got, expected, "short writes must resume at the exact byte");
    }

    #[test]
    fn delayed_frames_hold_the_queue_and_report_the_release() {
        let (tx, _rx) = loopback_pair();
        tx.set_nonblocking(true).unwrap();
        let mut conn = conn::<Vec<u8>>(tx);
        let clock = WallClock::start();
        let release = clock.now() + SimDuration::from_secs(60);
        conn.outq.push_back(OutJob::Frame {
            frame: OutFrame::ack(1),
            not_before: Some(release),
            notify: None,
        });
        conn.outq.push_back(OutJob::Frame {
            frame: OutFrame::ack(2),
            not_before: None,
            notify: None,
        });
        let mut credits = Vec::new();
        let embargo = conn.pump_write(clock, |n| credits.push(n));
        assert_eq!(embargo, Some(release));
        assert!(credits.is_empty(), "a delayed head must hold FIFO order");
        assert_eq!(conn.outq.len(), 2);
    }

    #[test]
    fn severed_writes_complete_frames_as_lost() {
        let (tx, rx) = loopback_pair();
        tx.set_nonblocking(true).unwrap();
        let mut conn = conn(tx);
        conn.outq.push_back(OutJob::Sever);
        conn.outq.push_back(OutJob::Frame {
            frame: out_envelope(4, Envelope::new(FragmentId(0), HostId(2), 2, vec![9u8; 32])),
            not_before: None,
            notify: Some(HostId(2)),
        });
        let mut credits = Vec::new();
        assert!(conn
            .pump_write(WallClock::start(), |n| credits.push(n))
            .is_none());
        // The frame behind the FIN is lost on the medium, but its send
        // credit still comes free — a dead peer is the retransmission
        // protocol's business, not backpressure.
        assert!(!conn.write_open);
        assert_eq!(credits, vec![Some(HostId(2))]);
        drop(rx);
    }

    /// What a host's visits looked like from inside the callback.
    #[derive(Default)]
    struct Seen {
        /// Per visit, in order: did it run on the reactor thread?
        on_reactor: Vec<bool>,
        /// Index of the last fragment seen per origin host.
        last_index: HashMap<u8, u8>,
    }

    /// Four hosts, ten `[origin, index]` fragments each, under a visit
    /// that fails the run if two visits of one host ever overlap or a host
    /// sees one origin's fragments out of the order they entered the ring,
    /// and that sleeps 1 ms on every `slow_every`-th call of a host.
    /// Inline visits run on the thread that called `run`, which is how the
    /// callback tells the two paths apart. The run is traced.
    fn serial_in_order_run(slow_every: Option<usize>) -> (RingMetrics, Vec<Seen>, SpanTracer) {
        let (hosts, per_host) = (4usize, 10usize);
        let fragments: Vec<Vec<Vec<u8>>> = (0..hosts)
            .map(|h| (0..per_host).map(|i| vec![h as u8, i as u8]).collect())
            .collect();
        let reactor = thread::current().id();
        let visiting: Vec<AtomicBool> = (0..hosts).map(|_| AtomicBool::new(false)).collect();
        let seen: Vec<Mutex<Seen>> = (0..hosts).map(|_| Mutex::default()).collect();
        let (metrics, spans) = ReactorRingDriver::new(&RingConfig::paper(hosts))
            .with_tracer(true)
            .run(fragments, |h, payload: &Vec<u8>| {
                assert!(
                    !visiting[h.0].swap(true, Ordering::SeqCst),
                    "two visits of host {} overlap",
                    h.0
                );
                let mut seen = seen[h.0].lock().unwrap();
                let (origin, index) = (payload[0], payload[1]);
                if let Some(before) = seen.last_index.insert(origin, index) {
                    assert!(
                        before < index,
                        "host {} saw {origin}'s fragments reordered",
                        h.0
                    );
                }
                seen.on_reactor.push(thread::current().id() == reactor);
                if slow_every.is_some_and(|k| seen.on_reactor.len().is_multiple_of(k)) {
                    thread::sleep(Duration::from_millis(1));
                }
                visiting[h.0].store(false, Ordering::SeqCst);
            })
            .unwrap();
        let seen: Vec<Seen> = seen.into_iter().map(|s| s.into_inner().unwrap()).collect();
        for (m, s) in metrics.hosts.iter().zip(&seen) {
            assert_eq!(m.fragments_processed, hosts * per_host);
            assert_eq!(s.on_reactor.len(), hosts * per_host);
            assert_eq!(
                m.visits_inline,
                s.on_reactor.iter().filter(|&&inline| inline).count(),
                "the counter must count exactly the visits that ran on the reactor thread"
            );
            assert!(!s.on_reactor[0], "a host's first visit has no history");
        }
        (metrics, seen, spans)
    }

    #[test]
    fn cheap_visits_run_inline_serially_and_in_order() {
        let (metrics, _, _) = serial_in_order_run(None);
        let inline: usize = metrics.hosts.iter().map(|h| h.visits_inline).sum();
        assert!(inline > 80, "only {inline} of 160 cheap visits ran inline");
    }

    /// An inline visit leaves the same trace as a pooled one: a `Join`
    /// span per visit, spans that add up to each host's `join_busy`, and
    /// the inline visits counted.
    #[test]
    fn traced_inline_visits_reconcile_with_the_metrics() {
        use simnet::span::{counter, SpanKind};
        let (metrics, _, spans) = serial_in_order_run(None);
        let inline: usize = metrics.hosts.iter().map(|h| h.visits_inline).sum();
        assert!(inline > 0, "no cheap visit ran inline");
        let visits: usize = metrics.hosts.iter().map(|h| h.fragments_processed).sum();
        let joins = spans.spans().iter().filter(|s| s.kind == SpanKind::Join);
        assert_eq!(joins.count(), visits, "one Join span per visit");
        for (h, m) in metrics.hosts.iter().enumerate() {
            assert_eq!(spans.busy_total(h), m.join_busy, "host {h} join_busy");
        }
        assert_eq!(
            spans.counters().get(counter::VISITS_INLINE) as usize,
            inline
        );
    }

    #[test]
    fn a_slow_visit_falls_back_to_the_pool_and_comes_back() {
        let (_, seen, _) = serial_in_order_run(Some(5));
        for (h, s) in seen.iter().enumerate() {
            // Calls 5, 10, … slept; whatever followed one went to the pool.
            for k in (5..s.on_reactor.len()).step_by(5) {
                assert!(
                    !s.on_reactor[k],
                    "host {h} ran visit {k} inline after a slow one"
                );
            }
        }
        assert!(
            seen.iter()
                .any(|s| s.on_reactor.iter().skip(6).any(|&inline| inline)),
            "no host returned to inline visits after its first fallback"
        );
    }

    #[test]
    fn a_panicking_inline_visit_is_a_typed_teardown() {
        let reactor = thread::current().id();
        let err = ReactorRingDriver::new(&RingConfig::paper(3))
            .run(payloads(3, 8, 16), |_, _: &Vec<u8>| {
                assert!(thread::current().id() != reactor, "injected test panic");
            })
            .unwrap_err();
        assert_eq!(err, RingError::Teardown(teardown::CALLBACK_PANICKED));
    }

    #[test]
    fn pump_read_stops_at_a_short_read_and_still_sees_eof() {
        let (mut tx, rx) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        let mut conn = conn(rx);
        tx.write_all(&encode_ack(5)).unwrap();
        drop(tx);
        let mut frames: Vec<Frame<Vec<u8>>> = Vec::new();
        for _ in 0..1000 {
            pump(&mut conn, &mut frames);
            if !frames.is_empty() {
                break;
            }
            thread::sleep(Duration::from_micros(50));
        }
        // The short read returned without asking again, so the FIN behind
        // it is still unread …
        assert!(matches!(frames.as_slice(), [Frame::Ack { tid: 5 }]));
        assert!(conn.read_open);
        // … and the next readiness (level-triggered) classifies it.
        for _ in 0..1000 {
            pump(&mut conn, &mut frames);
            if !conn.read_open {
                break;
            }
            thread::sleep(Duration::from_micros(50));
        }
        assert!(!conn.read_open);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn each_fragment_is_encoded_once() {
        engine_suite::each_fragment_is_encoded_once::<ReactorEngine>(1);
    }

    #[test]
    fn an_origin_sends_the_bytes_it_was_prepared_in() {
        engine_suite::an_origin_sends_the_bytes_it_was_prepared_in::<ReactorEngine>(5);
    }

    #[test]
    fn a_received_payload_is_never_decoded() {
        engine_suite::a_received_payload_is_never_decoded::<ReactorEngine>(3);
    }

    #[test]
    fn a_flipped_column_bit_is_a_frame_error() {
        engine_suite::a_flipped_column_bit_is_a_frame_error::<ReactorEngine>();
    }

    #[test]
    fn multiplexed_queries_complete_on_the_reactor() {
        engine_suite::multiplexed_queries_complete::<ReactorEngine>();
    }

    #[test]
    fn multiplexed_queries_survive_reactor_faults() {
        engine_suite::multiplexed_queries_survive_faults::<ReactorEngine>();
    }
}

/// The reactor's completion hand-off under the model checker, with the
/// wake socket stood in for by a counter of unread pokes.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::sync::Condvar;

    /// The wake socket as the model sees it: pokes not yet read.
    #[derive(Default)]
    struct WakeSocket {
        unread: Mutex<usize>,
        readable: Condvar,
    }

    impl WakeSocket {
        fn poke(&self) {
            *self.unread.lock().unwrap() += 1;
            self.readable.notify_one();
        }

        /// The reactor's poll wait: blocks until a poke is readable.
        fn wait_readable(&self) {
            let mut unread = self.unread.lock().unwrap();
            while *unread == 0 {
                unread = self.readable.wait(unread).unwrap();
            }
        }

        fn drain(&self) {
            *self.unread.lock().unwrap() = 0;
        }
    }

    fn absorbed(host: usize) -> JobDone {
        let what = Done::Absorb {
            from: HostId(0),
            roles: 1,
            planned: false,
        };
        JobDone::new(HostId(host), SimDuration::ZERO, SimDuration::ZERO, what)
    }

    /// Two pool threads [`Doorbell::ring`] while the reactor pops,
    /// answers and waits as its loop does: pop until the queue is empty,
    /// wait for a poke, [`Doorbell::answer`] it, pop again. In every
    /// schedule the reactor pops both completions; a stranded one leaves
    /// it waiting on a socket nobody will poke, which the model reports
    /// as a deadlock.
    #[test]
    fn a_completion_pushed_while_the_reactor_drains_is_never_stranded() {
        loom::model(|| {
            let socket = WakeSocket::default();
            let doorbell = Doorbell::new(|| socket.poke());
            crate::sync::thread::scope(|s| {
                let pool: Vec<_> = (0..2)
                    .map(|h| {
                        let doorbell = &doorbell;
                        s.spawn(move || doorbell.ring(absorbed(h)))
                    })
                    .collect();
                let mut popped = 0;
                loop {
                    while doorbell.pop().is_some() {
                        popped += 1;
                    }
                    if popped == 2 {
                        break;
                    }
                    socket.wait_readable();
                    doorbell.answer(|| socket.drain());
                }
                for thread in pool {
                    thread.join().unwrap();
                }
            });
        });
    }
}
