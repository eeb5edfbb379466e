//! Deterministic fault injection for the collect plane.
//!
//! A [`FaultProxy`] sits between router agents and the collector as a
//! frame-aware TCP relay: it understands the wire framing just enough to
//! slice complete frames out of the stream, then mangles them according to
//! a seeded [`FaultPlan`] — drop, duplicate, reorder, delay, truncate,
//! bit-flip, or kill the connection outright. Every decision is a pure
//! function of `(seed, fault class, connection, frame index)`, so a test
//! failure replays exactly under the same seed.
//!
//! The proxy never interprets payloads; corruption is injected *below* the
//! validation layers on purpose, so the integration suite can assert that
//! the collector counts and survives what the wire/codec layers are
//! designed to catch.

use crate::wire::{self, HEADER_LEN};
use crate::CollectError;
use hifind_telemetry::{Counter, Registry, TelemetryError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault rates are parts-per-million of frames.
const PPM: u64 = 1_000_000;

/// A seeded schedule of frame faults. All rates default to zero; a plan
/// with only `seed` set relays faithfully.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for every per-frame decision.
    pub seed: u64,
    /// Frames silently discarded (parts per million).
    pub drop_ppm: u32,
    /// Frames forwarded twice (parts per million).
    pub dup_ppm: u32,
    /// Frames held back and emitted after their successor (ppm).
    pub reorder_ppm: u32,
    /// Frames delayed by [`FaultPlan::delay`] before forwarding (ppm).
    pub delay_ppm: u32,
    /// Delay applied to delayed frames.
    pub delay: Duration,
    /// Frames forwarded with the tail cut off, after which the connection
    /// is killed — framing downstream is torn mid-frame (ppm).
    pub truncate_ppm: u32,
    /// Frames forwarded with one payload bit flipped (ppm).
    pub bitflip_ppm: u32,
    /// Kill the agent↔collector connection after every N relayed frames
    /// (`0` = never). The agent reconnects and re-ships per its policy.
    pub kill_conn_every_frames: u64,
}

impl FaultPlan {
    /// A faithful relay plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            delay_ppm: 0,
            delay: Duration::from_millis(20),
            truncate_ppm: 0,
            bitflip_ppm: 0,
            kill_conn_every_frames: 0,
        }
    }

    /// The deterministic per-frame hash for one fault class.
    fn hash(&self, class: u8, conn: u64, frame: u64) -> u64 {
        splitmix64(
            self.seed
                ^ (u64::from(class) << 56)
                ^ conn.rotate_left(32)
                ^ frame.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Whether the fault of `class` at rate `ppm` fires for this frame.
    fn fires(&self, class: u8, conn: u64, frame: u64, ppm: u32) -> bool {
        u64::from(ppm) != 0 && self.hash(class, conn, frame) % PPM < u64::from(ppm)
    }
}

/// SplitMix64 — tiny, seedable, and good enough to decorrelate fault
/// classes; the same generator the trafficgen crate family uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fault classes, used as hash domains so decisions are independent.
mod class {
    pub const DROP: u8 = 2;
    pub const TRUNCATE: u8 = 3;
    pub const BITFLIP: u8 = 4;
    pub const DELAY: u8 = 5;
    pub const REORDER: u8 = 6;
    pub const DUP: u8 = 7;
}

/// What the proxy injected over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Complete frames that entered the proxy.
    pub frames_seen: u64,
    /// Frames discarded.
    pub dropped: u64,
    /// Frames forwarded twice.
    pub duplicated: u64,
    /// Frame pairs emitted in swapped order.
    pub reordered: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Frames truncated (connection killed after the partial write).
    pub truncated: u64,
    /// Frames forwarded with a flipped payload bit.
    pub bitflipped: u64,
    /// Connections killed (scheduled kills and truncation kills).
    pub conn_kills: u64,
}

#[derive(Default)]
struct StatsInner {
    frames_seen: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    truncated: AtomicU64,
    bitflipped: AtomicU64,
    conn_kills: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            frames_seen: self.frames_seen.load(Ordering::SeqCst),
            dropped: self.dropped.load(Ordering::SeqCst),
            duplicated: self.duplicated.load(Ordering::SeqCst),
            reordered: self.reordered.load(Ordering::SeqCst),
            delayed: self.delayed.load(Ordering::SeqCst),
            truncated: self.truncated.load(Ordering::SeqCst),
            bitflipped: self.bitflipped.load(Ordering::SeqCst),
            conn_kills: self.conn_kills.load(Ordering::SeqCst),
        }
    }
}

/// Best-effort fault metrics (`hifind_collect_fault_*`).
struct FaultTelemetry {
    frames: Arc<Counter>,
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    reordered: Arc<Counter>,
    delayed: Arc<Counter>,
    truncated: Arc<Counter>,
    bitflipped: Arc<Counter>,
    conn_kills: Arc<Counter>,
}

impl FaultTelemetry {
    fn new(registry: &Registry) -> Result<Self, TelemetryError> {
        Ok(FaultTelemetry {
            frames: registry.counter(
                "hifind_collect_fault_frames_total",
                "Complete frames that entered the fault proxy",
            )?,
            dropped: registry.counter(
                "hifind_collect_fault_dropped_total",
                "Frames discarded by the fault proxy",
            )?,
            duplicated: registry.counter(
                "hifind_collect_fault_duplicated_total",
                "Frames forwarded twice by the fault proxy",
            )?,
            reordered: registry.counter(
                "hifind_collect_fault_reordered_total",
                "Frame pairs emitted in swapped order by the fault proxy",
            )?,
            delayed: registry.counter(
                "hifind_collect_fault_delayed_total",
                "Frames delayed by the fault proxy",
            )?,
            truncated: registry.counter(
                "hifind_collect_fault_truncated_total",
                "Frames truncated mid-payload by the fault proxy",
            )?,
            bitflipped: registry.counter(
                "hifind_collect_fault_bitflipped_total",
                "Frames forwarded with a flipped payload bit",
            )?,
            conn_kills: registry.counter(
                "hifind_collect_fault_conn_kills_total",
                "Agent connections killed by the fault proxy",
            )?,
        })
    }
}

/// A running fault-injection relay. Dropping the handle without calling
/// [`FaultProxy::stop`] leaks the listener until process exit; tests
/// should always stop it.
pub struct FaultProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    stats: Arc<StatsInner>,
}

impl FaultProxy {
    /// Binds a loopback listener and relays every accepted connection to
    /// `upstream` with `plan`'s faults applied. With a `registry`, every
    /// injected fault is also counted under `hifind_collect_fault_*`.
    ///
    /// # Errors
    ///
    /// Fails on bind/resolve errors and metric registration clashes.
    pub fn spawn(
        upstream: impl ToSocketAddrs,
        plan: FaultPlan,
        registry: Option<&Registry>,
    ) -> Result<FaultProxy, CollectError> {
        let telemetry = registry.map(FaultTelemetry::new).transpose()?;
        let upstream_addr = upstream.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "upstream resolved to nothing")
        })?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                accept_loop(listener, upstream_addr, plan, shutdown, stats, telemetry)
            })
        };
        Ok(FaultProxy {
            local_addr,
            shutdown,
            acceptor,
            stats,
        })
    }

    /// The address agents should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Injection counters so far (the proxy keeps running).
    pub fn stats(&self) -> FaultStats {
        self.stats.snapshot()
    }

    /// Stops the relay and returns the final injection counters.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if the relay thread died.
    pub fn stop(self) -> Result<FaultStats, CollectError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.acceptor
            .join()
            .map_err(|_| CollectError::WorkerPanic("fault-proxy"))?;
        Ok(self.stats.snapshot())
    }
}

struct Shared {
    plan: FaultPlan,
    shutdown: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    telemetry: Option<FaultTelemetry>,
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    shutdown: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    telemetry: Option<FaultTelemetry>,
) {
    let shared = Arc::new(Shared {
        plan,
        shutdown: Arc::clone(&shutdown),
        stats,
        telemetry,
    });
    let mut handlers = Vec::new();
    let mut conn_index = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((downstream, _)) => {
                let shared = Arc::clone(&shared);
                let conn = conn_index;
                conn_index += 1;
                handlers.push(std::thread::spawn(move || {
                    relay_connection(downstream, upstream, conn, &shared)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Relays one agent connection frame by frame until EOF, shutdown, or an
/// injected/organic connection death. The collector's one message, the
/// accept answering a hello, is relayed back unfaulted: the fault model
/// is about data frames, and an accept this proxy ate would just fail
/// every agent's hello.
fn relay_connection(mut downstream: TcpStream, upstream_addr: SocketAddr, conn: u64, sh: &Shared) {
    let _ = downstream.set_read_timeout(Some(Duration::from_millis(50)));
    let Ok(mut upstream) = TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(5))
    else {
        return;
    };
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(Duration::from_secs(5)));
    relay_forward(&mut downstream, &mut upstream, conn, sh);
    // The agent-facing socket dies now — for injected kills, abruptly;
    // that is the fault being modelled. The collector sees a clean end
    // of stream after the last relayed byte.
    let _ = downstream.shutdown(std::net::Shutdown::Both);
}

/// The faulted agent-to-collector direction of one connection.
fn relay_forward(downstream: &mut TcpStream, upstream: &mut TcpStream, conn: u64, sh: &Shared) {
    let plan = &sh.plan;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut frame_idx = 0u64;
    // Frame the proxy is holding back for a reorder swap.
    let mut held: Option<Vec<u8>> = None;
    'conn: while !sh.shutdown.load(Ordering::SeqCst) {
        match downstream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    // A codec hello is control traffic, not a frame: it
                    // passes through whole and unfaulted (and uncounted),
                    // and so does the accept that answers it.
                    if buf.starts_with(&wire::HELLO_MAGIC) {
                        if buf.len() < 8 {
                            break;
                        }
                        let count = usize::from(u16::from_le_bytes([buf[6], buf[7]]));
                        let total = wire::HELLO_BASE_LEN + count;
                        if buf.len() < total {
                            break;
                        }
                        let hello: Vec<u8> = buf.drain(..total).collect();
                        let mut accept = [0u8; wire::ACCEPT_LEN];
                        let answered = upstream.write_all(&hello).is_ok()
                            && upstream.read_exact(&mut accept).is_ok()
                            && downstream.write_all(&accept).is_ok();
                        if !answered {
                            return;
                        }
                        continue;
                    }
                    if buf.len() < HEADER_LEN {
                        break;
                    }
                    let Ok(header_bytes) = <[u8; HEADER_LEN]>::try_from(&buf[..HEADER_LEN]) else {
                        break 'conn;
                    };
                    // The proxy only needs the length; a header the wire
                    // layer would reject is forwarded verbatim so the
                    // collector exercises its own rejection path.
                    let Ok(header) = wire::parse_header(&header_bytes, wire::DEFAULT_MAX_PAYLOAD)
                    else {
                        let _ = upstream.write_all(&buf);
                        break 'conn;
                    };
                    let frame_len = HEADER_LEN + header.payload_len as usize;
                    if buf.len() < frame_len {
                        break;
                    }
                    let mut frame: Vec<u8> = buf.drain(..frame_len).collect();
                    let idx = frame_idx;
                    frame_idx += 1;
                    sh.stats.frames_seen.fetch_add(1, Ordering::SeqCst);
                    if let Some(t) = &sh.telemetry {
                        t.frames.inc();
                    }

                    // Scheduled connection kill: flush any held frame so
                    // reorder cannot silently become drop, then die.
                    let kill_every = plan.kill_conn_every_frames;
                    if kill_every != 0 && idx != 0 && idx.is_multiple_of(kill_every) {
                        if let Some(h) = held.take() {
                            let _ = upstream.write_all(&h);
                        }
                        sh.stats.conn_kills.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.conn_kills.inc();
                        }
                        break 'conn;
                    }

                    if plan.fires(class::DROP, conn, idx, plan.drop_ppm) {
                        sh.stats.dropped.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.dropped.inc();
                        }
                        continue;
                    }

                    if plan.fires(class::TRUNCATE, conn, idx, plan.truncate_ppm)
                        && frame.len() > HEADER_LEN
                    {
                        let span = frame.len() - HEADER_LEN;
                        let keep = HEADER_LEN
                            + (usize::try_from(plan.hash(class::TRUNCATE, conn, idx)).unwrap_or(0)
                                % span);
                        if let Some(h) = held.take() {
                            let _ = upstream.write_all(&h);
                        }
                        let _ = upstream.write_all(&frame[..keep]);
                        sh.stats.truncated.fetch_add(1, Ordering::SeqCst);
                        sh.stats.conn_kills.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.truncated.inc();
                            t.conn_kills.inc();
                        }
                        break 'conn;
                    }

                    if plan.fires(class::BITFLIP, conn, idx, plan.bitflip_ppm)
                        && frame.len() > HEADER_LEN
                    {
                        let span = frame.len() - HEADER_LEN;
                        let pos = HEADER_LEN
                            + (usize::try_from(plan.hash(class::BITFLIP, conn, idx)).unwrap_or(0)
                                % span);
                        let bit = plan.hash(class::BITFLIP, conn, idx.rotate_left(17)) % 8;
                        frame[pos] ^= 1u8 << bit;
                        sh.stats.bitflipped.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.bitflipped.inc();
                        }
                    }

                    if plan.fires(class::DELAY, conn, idx, plan.delay_ppm) {
                        std::thread::sleep(plan.delay);
                        sh.stats.delayed.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.delayed.inc();
                        }
                    }

                    if held.is_none() && plan.fires(class::REORDER, conn, idx, plan.reorder_ppm) {
                        held = Some(frame);
                        continue;
                    }

                    let dup = plan.fires(class::DUP, conn, idx, plan.dup_ppm);
                    if write_frame(upstream, &frame, dup, sh).is_err() {
                        break 'conn;
                    }
                    if let Some(h) = held.take() {
                        sh.stats.reordered.fetch_add(1, Ordering::SeqCst);
                        if let Some(t) = &sh.telemetry {
                            t.reordered.inc();
                        }
                        if upstream.write_all(&h).is_err() {
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    // EOF or shutdown: a still-held reorder frame is flushed, not lost.
    if let Some(h) = held.take() {
        let _ = upstream.write_all(&h);
    }
}

fn write_frame(
    upstream: &mut TcpStream,
    frame: &[u8],
    dup: bool,
    sh: &Shared,
) -> std::io::Result<()> {
    upstream.write_all(frame)?;
    if dup {
        upstream.write_all(frame)?;
        sh.stats.duplicated.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = &sh.telemetry {
            t.duplicated.inc();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let mut plan = FaultPlan::new(99);
        plan.drop_ppm = 250_000; // 25%
        let fired: Vec<bool> = (0..4000)
            .map(|i| plan.fires(class::DROP, 0, i, plan.drop_ppm))
            .collect();
        let again: Vec<bool> = (0..4000)
            .map(|i| plan.fires(class::DROP, 0, i, plan.drop_ppm))
            .collect();
        assert_eq!(fired, again, "same seed must replay identically");
        let hits = fired.iter().filter(|&&b| b).count();
        assert!(
            (600..1400).contains(&hits),
            "25% of 4000 should land near 1000, got {hits}"
        );
        // Classes are decorrelated: same indices, different class, should
        // not produce the same firing pattern.
        let other: Vec<bool> = (0..4000)
            .map(|i| plan.fires(class::DUP, 0, i, plan.drop_ppm))
            .collect();
        assert_ne!(fired, other);
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::new(7);
        assert!((0..1000).all(|i| !plan.fires(class::DROP, 0, i, plan.drop_ppm)));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(1);
        a.drop_ppm = 500_000;
        let mut b = FaultPlan::new(2);
        b.drop_ppm = 500_000;
        let fa: Vec<bool> = (0..256)
            .map(|i| a.fires(class::DROP, 0, i, a.drop_ppm))
            .collect();
        let fb: Vec<bool> = (0..256)
            .map(|i| b.fires(class::DROP, 0, i, b.drop_ppm))
            .collect();
        assert_ne!(fa, fb);
    }
}
