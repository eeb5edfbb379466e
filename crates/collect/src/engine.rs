//! The event-driven connection engine shared by the root collector and
//! mid-tier aggregators.
//!
//! One thread owns every socket of a collection node: a readiness loop
//! (`poll(2)` over nonblocking fds) multiplexes the listener, a wakeup
//! pipe, and all downstream connections. Each connection carries its own
//! read buffer and a typed frame state machine ([`FrameAssembler`]); no
//! thread is ever spawned per connection, so a node holding hundreds of
//! downstream agents costs one engine thread, not hundreds of stacks.
//!
//! Frames are validated whole (against the node's own configuration
//! too), parsed into runs, and handed over a bounded channel to the
//! consumer (the tier node thread), which adds them into its sums. A
//! consumer that falls behind backpressures the engine: events it cannot
//! `try_send` park in a small pending queue and every connection that
//! has produced data frames leaves the poll set until the queue drains,
//! so backpressure lands on TCP instead of collector memory. Crucially
//! the engine thread itself never blocks — the control plane (accepting
//! connections, answering codec hellos, flushing interval acks) stays
//! live however far behind detection runs.
//! An agent reconnecting into a backpressured collector still gets its
//! hello answered instead of timing out into retry loops.
//!
//! Every frame is codec v2. A connection that opened with a hello is
//! acked per frame; one that sent no hello is still decoded, never acked.
//! A version-1 frame header is a lost framing: it is rejected and its
//! connection dropped.
//!
//! Shutdown is prompt: [`EngineHandle::wake`] writes one byte into the
//! wakeup pipe, which the poll set always watches, so `stop()` never
//! waits out an accept or read timeout tick.

use crate::codec_v2::{ChainStore, FrameRuns};
use crate::wire::{self, FrameHeader, WireError, HEADER_LEN};
use crate::CollectError;
use hifind::SnapshotShape;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine → consumer messages, one per connection transition or frame.
pub(crate) enum Event {
    /// A downstream node connected.
    Connected,
    /// A validated snapshot frame, parsed into runs.
    Frame(Box<Received>),
    /// A frame failed wire validation and was discarded; with the time
    /// spent validating its payload when its framing held.
    Rejected(WireError, Option<Duration>),
    /// A downstream node disconnected (or its stream turned fatal).
    Disconnected,
}

/// A validated frame as the engine hands it on: the sender id and
/// interval from its header, its payload parsed into runs, its header +
/// payload size on the wire, whether the payload was a delta, and the
/// time spent validating and parsing it.
pub(crate) struct Received {
    pub router_id: u32,
    pub interval: u64,
    pub frame: FrameRuns,
    pub frame_bytes: u64,
    pub delta: bool,
    pub decode: Duration,
}

/// Engine policy knobs.
pub(crate) struct EngineConfig {
    /// Per-frame payload cap handed to the wire layer.
    pub max_payload: u32,
    /// Poll timeout: the worst-case latency of noticing the shutdown
    /// flag if the wakeup byte is ever lost (belt and braces).
    pub tick: Duration,
    /// The node's own snapshot shapes, which every frame must have.
    pub shape: Arc<SnapshotShape>,
}

/// A typed per-connection frame state machine: bytes accumulate in one
/// growing buffer and frames are sliced out whole, so arbitrary TCP
/// segmentation can never split a frame.
pub(crate) struct FrameAssembler {
    buf: Vec<u8>,
    state: FrameState,
    max_payload: u32,
    shape: Arc<SnapshotShape>,
}

/// Where the assembler stands in the current frame.
enum FrameState {
    /// Waiting for a complete 36-byte header.
    Header,
    /// Header parsed; waiting for its declared payload.
    Payload(FrameHeader),
}

/// One assembler step.
pub(crate) enum Step {
    /// Not enough buffered bytes to advance; read more.
    Need,
    /// A complete, validated frame.
    Frame(Box<Received>),
    /// The peer's hello, which offered codec v2.
    Hello,
    /// The framing was intact (lengths checked out) but the payload,
    /// validated in the given time, was bad; this frame is skipped, the
    /// connection survives.
    Skip(WireError, Duration),
    /// Framing itself is lost; the connection must be dropped.
    Fatal(WireError),
}

impl FrameAssembler {
    pub(crate) fn new(max_payload: u32, shape: Arc<SnapshotShape>) -> Self {
        FrameAssembler {
            buf: Vec::new(),
            state: FrameState::Header,
            max_payload,
            shape,
        }
    }

    /// Appends freshly read bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether undecoded bytes are sitting in the buffer. A connection
    /// whose service round stopped early (consumer backpressure) holds
    /// whole frames here that no poll readiness will ever announce.
    fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to slice a complete hello off the front of the buffer.
    /// `None` means "not a hello" (fall through to frame parsing);
    /// `Some(Need)` means one is forming but incomplete.
    fn try_hello(&mut self) -> Option<Step> {
        if self.buf.len() < 4 || self.buf[..4] != wire::HELLO_MAGIC {
            return None;
        }
        if self.buf.len() < wire::HELLO_BASE_LEN {
            return Some(Step::Need);
        }
        let count = usize::from(u16::from_le_bytes([self.buf[6], self.buf[7]]));
        let total = wire::HELLO_BASE_LEN + count;
        if self.buf.len() < total {
            return Some(Step::Need);
        }
        match wire::parse_hello(&self.buf[..total]) {
            Ok(codecs) if codecs.contains(&wire::CODEC_V2) => {
                self.buf.drain(..total);
                Some(Step::Hello)
            }
            // Every hello this protocol has ever seen offered v2; one
            // that does not is as untrustworthy as a corrupt one.
            Ok(_) => Some(Step::Fatal(WireError::BadControl {
                at: "hello without codec v2",
            })),
            // A corrupt hello means the peer's first bytes are already
            // untrustworthy; framing cannot recover.
            Err(e) => Some(Step::Fatal(e)),
        }
    }

    /// Advances the state machine by at most one frame.
    pub(crate) fn step(&mut self, chains: &mut ChainStore) -> Step {
        let header = match self.state {
            FrameState::Header => {
                if let Some(step) = self.try_hello() {
                    return step;
                }
                if self.buf.len() < HEADER_LEN {
                    return Step::Need;
                }
                let Ok(header_bytes) = <[u8; HEADER_LEN]>::try_from(&self.buf[..HEADER_LEN]) else {
                    // Length is guaranteed by the guard above; bail rather
                    // than panic if that invariant ever breaks.
                    return Step::Fatal(WireError::TruncatedFrame {
                        expected: HEADER_LEN,
                        got: self.buf.len(),
                    });
                };
                match wire::parse_header(&header_bytes, self.max_payload) {
                    Ok(h) => {
                        self.state = FrameState::Payload(h);
                        h
                    }
                    Err(e) => return Step::Fatal(e),
                }
            }
            FrameState::Payload(h) => h,
        };
        let payload_len = match header.payload_len_usize() {
            Ok(len) => len,
            Err(e) => {
                self.state = FrameState::Header;
                return Step::Fatal(e);
            }
        };
        let frame_len = HEADER_LEN + payload_len;
        if self.buf.len() < frame_len {
            return Step::Need;
        }
        let payload = &self.buf[HEADER_LEN..frame_len];
        let decode_start = Instant::now();
        let parsed = wire::parse_payload(&header, payload, chains, Some(&self.shape));
        let decode = decode_start.elapsed();
        self.buf.drain(..frame_len);
        self.state = FrameState::Header;
        match parsed {
            Ok((frame, delta)) => Step::Frame(Box::new(Received {
                router_id: header.router_id,
                interval: header.interval,
                frame,
                frame_bytes: u64::try_from(frame_len).unwrap_or(u64::MAX),
                delta,
                decode,
            })),
            Err(e) => Step::Skip(e, decode),
        }
    }
}

/// The write end of the engine's wakeup pipe. Writing a byte makes the
/// poll loop return immediately, so shutdown never waits out a tick.
#[cfg(unix)]
pub(crate) struct Waker {
    tx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    pub(crate) fn wake(&self) {
        use std::io::Write as _;
        // A full pipe means a wakeup is already pending; either way the
        // poll loop gets woken, so the result is irrelevant.
        let _ = (&self.tx).write(&[1u8]);
    }
}

#[cfg(unix)]
struct WakeReader {
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl WakeReader {
    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(unix)]
fn wake_pair() -> std::io::Result<(Waker, WakeReader)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReader { rx }))
}

/// Portable fallback: without a pollable pipe the engine falls back to
/// its tick, so `wake` is a no-op and shutdown costs one tick at worst.
#[cfg(not(unix))]
pub(crate) struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub(crate) fn wake(&self) {}
}

#[cfg(not(unix))]
struct WakeReader;

#[cfg(not(unix))]
impl WakeReader {
    fn drain(&self) {}
}

#[cfg(not(unix))]
fn wake_pair() -> std::io::Result<(Waker, WakeReader)> {
    Ok((Waker, WakeReader))
}

#[cfg(unix)]
#[allow(unsafe_code)] // the crate-level deny's one hole: the poll(2) FFI
mod sys {
    //! Minimal FFI binding to `poll(2)`. The libc crate is not vendored,
    //! and `std` exposes no readiness API, so this is the one unsafe
    //! corner of the collection plane; it is confined to this module.

    use std::io;
    use std::os::unix::io::RawFd;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    /// Readable-data event bit (same value on Linux and the BSDs).
    pub(super) const POLLIN: i16 = 0x001;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::os::raw::c_int) -> std::os::raw::c_int;
    }

    /// Waits up to `timeout_ms` for readiness on `fds`, returning how
    /// many entries have non-zero `revents`.
    ///
    /// # Errors
    ///
    /// The `poll(2)` errno as an [`io::Error`] (including `Interrupted`,
    /// which callers treat as an empty round).
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let nfds =
            Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs matching the kernel ABI; `nfds` is
        // its exact length, so the kernel reads and writes (revents only)
        // strictly inside the slice for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            usize::try_from(rc).map_err(|_| io::Error::from(io::ErrorKind::InvalidData))
        }
    }
}

/// One downstream connection owned by the engine.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    open: bool,
    /// The peer's hello was accepted.
    negotiated: bool,
    /// Bytes queued for the peer (accept + acks), written opportunistically
    /// with nonblocking writes so the engine never stalls on a peer.
    out: Vec<u8>,
    /// The write side died (peer gone or closed). Control messages stop;
    /// the read side keeps draining whatever the peer already sent.
    write_dead: bool,
    /// The peer has produced at least one data frame. While the consumer
    /// is backpressured, greeted connections leave the poll set (their
    /// bytes wait in TCP); ungreeted ones — fresh peers mid-handshake —
    /// stay serviced so hellos are always answered promptly.
    greeted: bool,
}

/// Cap on a connection's queued outbound control bytes. Acks beyond it
/// are dropped — the peer simply keyframes until the queue drains, so
/// an unreadable peer costs compression, never engine memory or time.
const MAX_OUT_BUFFER: usize = 4096;

impl Conn {
    /// Queues `msg` unless the buffer is at its cap or the peer is gone.
    fn queue(&mut self, msg: &[u8]) {
        if !self.write_dead && self.out.len().saturating_add(msg.len()) <= MAX_OUT_BUFFER {
            self.out.extend_from_slice(msg);
        }
    }

    /// Writes as much queued output as the socket will take right now.
    ///
    /// A dead write side (a peer that shipped its frames and closed) only
    /// disables further control messages — it must NOT close the
    /// connection: frames the peer sent before closing may still sit in
    /// our receive buffer, and acks are mere compression hints.
    fn flush_out(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(n) if n > 0 => {
                    self.out.drain(..n);
                }
                Ok(_) => {
                    self.write_dead = true;
                    self.out.clear();
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.write_dead = true;
                    self.out.clear();
                    return;
                }
            }
        }
    }
}

/// Readiness of (wakeup pipe, listener, each connection) after one wait.
#[cfg(unix)]
fn wait_ready(
    wake_rx: &WakeReader,
    listener: &TcpListener,
    conns: &[Conn],
    watch: &[bool],
    tick: Duration,
) -> (bool, bool, Vec<bool>) {
    use std::os::unix::io::AsRawFd as _;
    let mut fds = Vec::with_capacity(conns.len() + 2);
    fds.push(sys::PollFd {
        fd: wake_rx.rx.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    });
    fds.push(sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    });
    // Unwatched (backpressure-paused) connections are left out of the
    // poll set entirely: their readable bytes would otherwise make every
    // poll return instantly and spin the loop while the consumer drains.
    let mut watched = Vec::with_capacity(conns.len());
    for (i, c) in conns.iter().enumerate() {
        if watch[i] {
            watched.push(i);
            fds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
        }
    }
    let timeout = i32::try_from(tick.as_millis()).unwrap_or(i32::MAX);
    match sys::poll_fds(&mut fds, timeout) {
        Ok(0) => (false, false, vec![false; conns.len()]),
        Ok(_) => {
            // Any revents bit (data, hangup, error) warrants a read: the
            // read itself surfaces hangups as Ok(0) and errors as Err.
            let mut ready = vec![false; conns.len()];
            for (slot, f) in fds[2..].iter().enumerate() {
                if f.revents != 0 {
                    ready[watched[slot]] = true;
                }
            }
            (fds[0].revents != 0, fds[1].revents != 0, ready)
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            (false, false, vec![false; conns.len()])
        }
        Err(_) => {
            // poll(2) itself failing (fd-limit pressure, ENOMEM): degrade
            // to a scan round so the engine stays live rather than spin.
            // lint: allow(poll-loop-purity, bounded 2ms pause replacing the timed wait when poll itself fails — the alternative is a busy spin)
            std::thread::sleep(Duration::from_millis(2));
            (true, true, watch.to_vec())
        }
    }
}

/// Portable fallback: a short scan tick over the nonblocking sockets.
#[cfg(not(unix))]
fn wait_ready(
    _wake_rx: &WakeReader,
    _listener: &TcpListener,
    _conns: &[Conn],
    watch: &[bool],
    tick: Duration,
) -> (bool, bool, Vec<bool>) {
    // lint: allow(poll-loop-purity, the portable build has no poll — this bounded tick sleep IS the wait primitive)
    std::thread::sleep(tick.min(Duration::from_millis(5)));
    (true, true, watch.to_vec())
}

/// The connection engine. [`PollEngine::spawn`] starts its one thread.
pub(crate) struct PollEngine;

impl PollEngine {
    /// Takes ownership of `listener` and runs the readiness loop until
    /// `shutdown` is set (and [`EngineHandle::wake`] is called) or every
    /// event receiver is gone.
    ///
    /// # Errors
    ///
    /// Socket-option and wakeup-pipe creation failures.
    pub(crate) fn spawn(
        listener: TcpListener,
        tx: SyncSender<Event>,
        shutdown: Arc<AtomicBool>,
        cfg: EngineConfig,
    ) -> Result<EngineHandle, CollectError> {
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = wake_pair()?;
        let thread = std::thread::spawn(move || run(listener, wake_rx, tx, shutdown, cfg));
        Ok(EngineHandle { waker, thread })
    }
}

/// A running engine: wake it, then join it.
pub(crate) struct EngineHandle {
    waker: Waker,
    thread: JoinHandle<()>,
}

impl EngineHandle {
    /// Interrupts the poll loop immediately (used with the shutdown flag
    /// for prompt stops).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Joins the engine thread.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if the engine thread died.
    pub(crate) fn join(self) -> Result<(), CollectError> {
        self.thread
            .join()
            .map_err(|_| CollectError::WorkerPanic("engine"))
    }
}

fn run(
    listener: TcpListener,
    wake_rx: WakeReader,
    tx: SyncSender<Event>,
    shutdown: Arc<AtomicBool>,
    cfg: EngineConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    // Delta baselines for every downstream, shared across connections so
    // a sender that reconnects (same router id) can still be served —
    // though its fresh session always opens with a keyframe anyway.
    let mut chains = ChainStore::new();
    // Events the consumer had no channel room for. While non-empty the
    // engine is backpressured: greeted connections pause, control stays
    // live. Bounded in practice by one service burst per fresh peer.
    let mut pending: VecDeque<Event> = VecDeque::new();
    // Round-robin origin for the per-round service order (see below).
    let mut rr: usize = 0;
    while !shutdown.load(Ordering::SeqCst) {
        // Retry parked events first, preserving delivery order.
        while let Some(ev) = pending.pop_front() {
            match tx.try_send(ev) {
                Ok(()) => {}
                Err(TrySendError::Full(ev)) => {
                    pending.push_front(ev);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
        let backpressured = !pending.is_empty();
        let watch: Vec<bool> = conns
            .iter()
            .map(|c| !(backpressured && c.greeted))
            .collect();
        let (waker_ready, listener_ready, conn_ready) =
            wait_ready(&wake_rx, &listener, &conns, &watch, cfg.tick);
        if waker_ready {
            wake_rx.drain();
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Service existing connections first; `conn_ready` is indexed
        // against the list as it stood when we polled. The starting
        // index rotates every round: service order decides who gets the
        // consumer channel's free slots, and a fixed order would let
        // connection 0 deliver several intervals per round while the
        // rest park one event each — skewing per-router delivery far
        // enough apart to overflow the aligner's reorder window.
        let mut any_closed = false;
        for k in 0..conns.len() {
            let i = (rr + k) % conns.len();
            let ready = &conn_ready[i];
            let conn = &mut conns[i];
            // Leftover assembler bytes (a service round cut short by
            // backpressure) are as serviceable as fresh socket data —
            // poll will never announce them, so check explicitly.
            let leftover = !backpressured && conn.assembler.has_buffered();
            let flow = if *ready || leftover {
                service(conn, &tx, &mut pending, &mut chains)
            } else {
                // Nothing to read (or paused); retry any queued
                // accept/acks that hit WouldBlock earlier.
                conn.flush_out();
                Flow::Keep
            };
            match flow {
                Flow::Keep => {}
                Flow::Close => {
                    conn.open = false;
                    any_closed = true;
                    if !emit(&tx, &mut pending, Event::Disconnected) {
                        return;
                    }
                }
                Flow::Exit => return,
            }
        }
        if !conns.is_empty() {
            rr = (rr + 1) % conns.len();
        }
        if any_closed {
            conns.retain(|c| c.open);
        }
        if listener_ready {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            // A socket we cannot make nonblocking would
                            // stall the whole loop; refuse it.
                            continue;
                        }
                        if !emit(&tx, &mut pending, Event::Connected) {
                            return;
                        }
                        conns.push(Conn {
                            stream,
                            assembler: FrameAssembler::new(cfg.max_payload, Arc::clone(&cfg.shape)),
                            open: true,
                            negotiated: false,
                            out: Vec::new(),
                            write_dead: false,
                            greeted: false,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Transient per-connection accept failures
                    // (ECONNABORTED and friends): retry next round.
                    Err(_) => break,
                }
            }
        }
    }
    // Dropping `tx` tells the consumer no more events are coming.
}

/// Delivers `ev` without ever blocking the engine thread: straight to
/// the channel when the queue is clear, parked behind earlier events
/// otherwise (order is preserved either way). Returns `false` only when
/// every receiver is gone and the engine should exit.
fn emit(tx: &SyncSender<Event>, pending: &mut VecDeque<Event>, ev: Event) -> bool {
    if pending.is_empty() {
        match tx.try_send(ev) {
            Ok(()) => {}
            Err(TrySendError::Full(ev)) => pending.push_back(ev),
            Err(TrySendError::Disconnected(_)) => return false,
        }
    } else {
        pending.push_back(ev);
    }
    true
}

/// What to do with a connection after servicing it.
#[derive(PartialEq, Eq)]
enum Flow {
    Keep,
    Close,
    /// Every event receiver is gone; the engine itself should exit.
    Exit,
}

/// What a decode pass over a connection's assembler ended with.
enum Drain {
    /// Stopped at the event cap or at `Need` (more bytes required).
    Paused,
    /// Framing lost: the connection must close.
    Fatal,
    /// Every event receiver is gone; the engine itself should exit.
    Exit,
}

/// Decodes whatever complete frames sit in `conn`'s assembler, emitting
/// their events, until the buffer runs dry, the framing turns fatal, or
/// (with a cap) `cap` data events have been emitted. Hellos are answered
/// and validated v2 frames acked via the connection's out-buffer; neither
/// counts against the cap. Returns the data events emitted and why the
/// pass stopped.
fn drain_steps(
    conn: &mut Conn,
    tx: &SyncSender<Event>,
    pending: &mut VecDeque<Event>,
    chains: &mut ChainStore,
    cap: Option<usize>,
) -> (usize, Drain) {
    let mut emitted = 0usize;
    loop {
        if cap.is_some_and(|c| emitted >= c) {
            return (emitted, Drain::Paused);
        }
        match conn.assembler.step(chains) {
            Step::Need => return (emitted, Drain::Paused),
            Step::Hello => {
                conn.negotiated = true;
                conn.queue(&wire::encode_accept(wire::CODEC_V2));
            }
            Step::Frame(received) => {
                conn.greeted = true;
                // Acks exist solely to unlock the sender's delta chain,
                // which only a peer that sent a hello keeps.
                if conn.negotiated {
                    conn.queue(&wire::encode_ack(received.interval));
                }
                if !emit(tx, pending, Event::Frame(received)) {
                    return (emitted, Drain::Exit);
                }
                emitted += 1;
            }
            // Framing intact, payload bad: skip the frame.
            Step::Skip(e, decode) => {
                conn.greeted = true;
                if !emit(tx, pending, Event::Rejected(e, Some(decode))) {
                    return (emitted, Drain::Exit);
                }
                emitted += 1;
            }
            // Framing lost: drop the connection.
            Step::Fatal(e) => {
                conn.greeted = true;
                if !emit(tx, pending, Event::Rejected(e, None)) {
                    return (emitted, Drain::Exit);
                }
                return (emitted, Drain::Fatal);
            }
        }
    }
}

/// Services one connection: decodes leftover buffered frames, then reads
/// until it would block (bounded per round so one firehose peer cannot
/// starve the rest — poll is level-triggered, leftover bytes surface
/// again next round). The round ends as soon as ONE data event is
/// emitted: delivery fairness across senders is exactly the per-round
/// event budget, and a conn allowed to burst until the channel filled
/// would race whole intervals ahead of its peers and overflow the
/// aligner's reorder window. Decoding ahead of a full consumer would
/// also just move backpressure off TCP and into engine memory. The one
/// exception is EOF or a fatal socket error: there will be no further
/// rounds for this connection, so everything the peer shipped before
/// closing drains uncapped — the pending queue absorbs it.
fn service(
    conn: &mut Conn,
    tx: &SyncSender<Event>,
    pending: &mut VecDeque<Event>,
    chains: &mut ChainStore,
) -> Flow {
    let mut chunk = [0u8; 64 * 1024];
    let mut flow = Flow::Keep;
    // Leftovers first: an earlier capped round may have left complete
    // frames in the assembler that no poll readiness will announce.
    let spent = match drain_steps(conn, tx, pending, chains, Some(1)) {
        (_, Drain::Exit) => return Flow::Exit,
        (_, Drain::Fatal) => {
            conn.flush_out();
            return Flow::Close;
        }
        (n, Drain::Paused) => n >= 1,
    };
    if !spent {
        'read: for _ in 0..8 {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    if matches!(
                        drain_steps(conn, tx, pending, chains, None),
                        (_, Drain::Exit)
                    ) {
                        return Flow::Exit;
                    }
                    flow = Flow::Close;
                    break 'read;
                }
                Ok(n) => {
                    conn.assembler.extend(&chunk[..n]);
                    match drain_steps(conn, tx, pending, chains, Some(1)) {
                        (_, Drain::Exit) => return Flow::Exit,
                        (_, Drain::Fatal) => {
                            flow = Flow::Close;
                            break 'read;
                        }
                        (k, Drain::Paused) => {
                            if k >= 1 {
                                break 'read;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break 'read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if matches!(
                        drain_steps(conn, tx, pending, chains, None),
                        (_, Drain::Exit)
                    ) {
                        return Flow::Exit;
                    }
                    flow = Flow::Close;
                    break 'read;
                }
            }
        }
    }
    // Push out whatever this round queued (accept, acks) — best effort;
    // a dead write side never closes a connection that may still hold
    // readable frames.
    conn.flush_out();
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::{HiFindConfig, SketchRecorder};

    /// The shapes of the nodes these tests feed: `small(3)`'s.
    fn shape() -> Arc<SnapshotShape> {
        Arc::new(SnapshotShape::of_config(&HiFindConfig::small(3)).unwrap())
    }

    fn sample_frame() -> (Vec<u8>, u64) {
        let cfg = HiFindConfig::small(3);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let snap = rec.take_snapshot();
        let payload = crate::codec_v2::encode_keyframe(&snap);
        let frame = wire::encode_frame_v2(9, 4, snap.fingerprint, &payload).unwrap();
        let len = frame.len() as u64;
        (frame, len)
    }

    #[test]
    fn assembler_survives_any_byte_segmentation() {
        let (frame, frame_len) = sample_frame();
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        for chunk_size in [1, 7, 36, 37, 1024] {
            let mut asm = FrameAssembler::new(wire::DEFAULT_MAX_PAYLOAD, shape());
            let mut chains = ChainStore::new();
            let mut frames = 0;
            for chunk in doubled.chunks(chunk_size) {
                asm.extend(chunk);
                loop {
                    match asm.step(&mut chains) {
                        Step::Need => break,
                        Step::Frame(r) => {
                            assert_eq!(r.router_id, 9);
                            assert_eq!(r.interval, 4);
                            assert_eq!(r.frame_bytes, frame_len);
                            frames += 1;
                        }
                        Step::Skip(e, _) | Step::Fatal(e) => panic!("unexpected rejection: {e}"),
                        Step::Hello => panic!("no hello was sent"),
                    }
                }
            }
            assert_eq!(frames, 2, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn assembler_rejects_bad_magic_fatally() {
        let (mut frame, _) = sample_frame();
        frame[0] = b'X';
        let mut asm = FrameAssembler::new(wire::DEFAULT_MAX_PAYLOAD, shape());
        let mut chains = ChainStore::new();
        asm.extend(&frame);
        assert!(matches!(
            asm.step(&mut chains),
            Step::Fatal(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn assembler_skips_corrupt_payload_but_keeps_framing() {
        let (frame, _) = sample_frame();
        let mut corrupted = frame.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xFF; // flip a payload byte: CRC mismatch
        corrupted.extend_from_slice(&frame); // a good frame follows
        let mut asm = FrameAssembler::new(wire::DEFAULT_MAX_PAYLOAD, shape());
        let mut chains = ChainStore::new();
        asm.extend(&corrupted);
        assert!(matches!(asm.step(&mut chains), Step::Skip(..)));
        assert!(matches!(asm.step(&mut chains), Step::Frame(_)));
        assert!(matches!(asm.step(&mut chains), Step::Need));
    }

    /// A hello arriving in arbitrary fragments is recognized when it
    /// offers v2, and v2 frames parse after it; a version-1 frame is a
    /// fatal framing loss. A hello offering no v2 is a typed, fatal
    /// control error.
    #[test]
    fn hello_is_recognized_only_when_v2_is_enabled() {
        let hello = wire::encode_hello(&[wire::CODEC_V2]);
        let mut asm = FrameAssembler::new(wire::DEFAULT_MAX_PAYLOAD, shape());
        let mut chains = ChainStore::new();
        for &b in &hello[..hello.len() - 1] {
            asm.extend(&[b]);
            assert!(matches!(asm.step(&mut chains), Step::Need));
        }
        asm.extend(&hello[hello.len() - 1..]);
        assert!(matches!(asm.step(&mut chains), Step::Hello));
        let (frame, _) = sample_frame();
        asm.extend(&frame);
        assert!(matches!(asm.step(&mut chains), Step::Frame(r) if !r.delta));
        let cfg = HiFindConfig::small(3);
        asm.extend(&crate::collector::tests::version_1_frame(&cfg, 9, 5));
        assert!(matches!(
            asm.step(&mut chains),
            Step::Fatal(WireError::UnsupportedVersion(1))
        ));

        let mut v1_only = FrameAssembler::new(wire::DEFAULT_MAX_PAYLOAD, shape());
        v1_only.extend(&wire::encode_hello(&[1]));
        assert!(matches!(
            v1_only.step(&mut chains),
            Step::Fatal(WireError::BadControl { .. })
        ));
    }

    #[test]
    fn wake_interrupts_the_poll_loop_promptly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Event>(4);
        let shutdown = Arc::new(AtomicBool::new(false));
        let engine = PollEngine::spawn(
            listener,
            tx,
            Arc::clone(&shutdown),
            EngineConfig {
                max_payload: wire::DEFAULT_MAX_PAYLOAD,
                // A tick long enough that only the waker can explain a
                // fast exit.
                tick: Duration::from_secs(5),
                shape: shape(),
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = std::time::Instant::now();
        shutdown.store(true, Ordering::SeqCst);
        engine.wake();
        engine.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "engine took {:?} to stop; the wakeup pipe is not working",
            start.elapsed()
        );
        drop(rx);
    }
}
