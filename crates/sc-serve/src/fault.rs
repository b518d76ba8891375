//! Deterministic fault injection for the serving plane.
//!
//! Chaos testing a router/replica stack needs faults that are *repeatable*:
//! a flake that only appears on one machine's timing is a debugging tax,
//! not a test. This module provides two seeded, deterministic tools:
//!
//! * [`FaultyStream`] — a `Read`/`Write` wrapper applying a [`FaultKind`]
//!   to the bytes flowing through it (unit-testable without sockets).
//! * [`FaultProxy`] — a TCP proxy that fronts one backend and applies a
//!   [`FaultKind`] to the *backend → client* byte stream: response delays,
//!   mid-frame stalls, connection drops/truncations, and frame corruption.
//!   The client → backend direction is relayed verbatim, so requests always
//!   arrive intact and every observed failure is attributable to the
//!   injected response fault.
//!
//! The corruption faults are frame-aware. [`FaultKind::Corrupt`] flips the
//! top bit of the first payload byte (the tag/status byte) of every Nth
//! length-prefixed frame — detectable by any receiver, checksummed or not.
//! [`FaultKind::CorruptPayload`] flips a seeded-random bit of a
//! seeded-random payload byte (the CRC32 trailer included), which only a
//! checksummed protocol can detect: since every frame carries a CRC32
//! trailer, the receiver reports `InvalidData` and the router fails over
//! instead of silently serving altered logits — the contract the chaos
//! tests assert for both fault kinds. Arbitrary-position corruption safety
//! (no panic, no hang, no wild allocation) is covered by the fuzz-style
//! tests in [`crate::proto`].

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// SplitMix64: a tiny, high-quality 64-bit mixing function.
///
/// Used wherever the serving plane needs deterministic pseudo-randomness —
/// fault scheduling here, retry jitter in [`crate::router`] — so chaos runs
/// and backoff patterns replay identically from the same seeds.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 sequence.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Creates a generator whose output depends only on `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(1);
        splitmix64(self.state)
    }
}

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long before relaying each chunk (a uniformly slow link).
    Delay(Duration),
    /// Relay `after` bytes, then go silent — socket held open, no more
    /// bytes — for `limit`, then close. Models a hung replica; `limit`
    /// bounds the fault so test suites stay finite.
    Stall {
        /// Bytes relayed before the stall. Choose a value inside a frame to
        /// stall mid-frame.
        after: usize,
        /// How long the silence lasts before the connection closes.
        limit: Duration,
    },
    /// Relay `after` bytes, then close the connection. `after` inside a
    /// frame is the mid-frame truncation class; `after = 0` drops the
    /// response entirely.
    Drop {
        /// Bytes relayed before the close.
        after: usize,
    },
    /// Flip the tag/status byte of every `every_frames`-th length-prefixed
    /// frame (1 = every frame), making the frame reliably invalid to its
    /// receiver.
    Corrupt {
        /// Corruption period in frames (floored at one).
        every_frames: u32,
    },
    /// Flip one seeded-random bit of one seeded-random payload byte (the
    /// CRC32 trailer included) of every `every_frames`-th frame — the
    /// bit-rot class only a checksummed protocol can detect.
    CorruptPayload {
        /// Corruption period in frames (floored at one).
        every_frames: u32,
    },
}

/// Which payload byte of a selected frame gets flipped.
#[derive(Debug, Clone, Copy)]
enum CorruptMode {
    /// The first payload byte (the tag/status byte): invalid to any
    /// receiver, checksummed or not.
    Tag,
    /// A seeded-random byte anywhere in the payload, CRC trailer included:
    /// detected only because frames carry a CRC32 trailer.
    AnyByte,
}

/// Tracks length-prefixed frame boundaries in a byte stream so corruption
/// can target a chosen payload byte of chosen frames.
#[derive(Debug, Default)]
struct FrameTracker {
    header: [u8; 4],
    header_filled: usize,
    payload_len: usize,
    payload_remaining: usize,
    frames_seen: u64,
    /// `(payload offset, xor mask)` of the flip in the current frame, if
    /// this frame was selected.
    flip: Option<(usize, u8)>,
}

impl FrameTracker {
    /// Advances over `chunk`, flipping one byte of every `every_frames`-th
    /// frame in place. The flip target is chosen at header completion —
    /// once per frame regardless of how the stream is chunked — so the
    /// mutation is deterministic under any read fragmentation.
    fn corrupt(
        &mut self,
        chunk: &mut [u8],
        every_frames: u64,
        mode: CorruptMode,
        rng: &mut DeterministicRng,
    ) {
        for byte in chunk.iter_mut() {
            if self.payload_remaining == 0 {
                self.header[self.header_filled] = *byte;
                self.header_filled += 1;
                if self.header_filled == 4 {
                    self.header_filled = 0;
                    self.payload_len = u32::from_le_bytes(self.header) as usize;
                    self.payload_remaining = self.payload_len;
                    self.frames_seen += 1;
                    self.flip = (self.payload_len > 0
                        && self.frames_seen.is_multiple_of(every_frames))
                    .then(|| match mode {
                        CorruptMode::Tag => (0, 0x80),
                        CorruptMode::AnyByte => {
                            let offset = (rng.next_u64() % self.payload_len as u64) as usize;
                            let mask = 1u8 << (rng.next_u64() % 8);
                            (offset, mask)
                        }
                    });
                }
            } else {
                let offset = self.payload_len - self.payload_remaining;
                if let Some((target, mask)) = self.flip {
                    if offset == target {
                        *byte ^= mask;
                    }
                }
                self.payload_remaining -= 1;
            }
        }
    }
}

/// What [`FaultyStream::apply_read_fault`] decided about a chunk.
enum Verdict {
    /// Relay the (possibly mutated) chunk.
    Forward,
    /// Relay only the first `n` bytes, then end the stream.
    CutAfter(usize),
}

/// A `Read`/`Write` wrapper applying a [`FaultKind`] to the read side.
///
/// The wrapper is deterministic: the same seed, fault, and byte stream
/// produce the same mutations. Writes pass through untouched.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    fault: FaultKind,
    enabled: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    rng: DeterministicRng,
    tracker: FrameTracker,
    relayed: usize,
    done: bool,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner`, applying `fault` to every read while `enabled` holds
    /// true (flip the flag to turn the stream healthy mid-test). `stop`
    /// aborts a `Stall` sleep early so shutdown is never blocked on an
    /// injected fault.
    pub fn new(
        inner: S,
        fault: FaultKind,
        seed: u64,
        enabled: Arc<AtomicBool>,
        stop: Arc<AtomicBool>,
    ) -> Self {
        Self {
            inner,
            fault,
            enabled,
            stop,
            rng: DeterministicRng::new(seed),
            tracker: FrameTracker::default(),
            relayed: 0,
            done: false,
        }
    }

    /// Sleeps `total` in short slices, returning early if `stop` is set.
    fn interruptible_sleep(&self, total: Duration) {
        let mut remaining = total;
        while !remaining.is_zero() && !self.stop.load(Ordering::Relaxed) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }

    /// Applies the configured fault to a chunk of `n` freshly read bytes.
    fn apply_read_fault(&mut self, chunk: &mut [u8]) -> Verdict {
        if !self.enabled.load(Ordering::Relaxed) {
            return Verdict::Forward;
        }
        match self.fault {
            FaultKind::Delay(delay) => {
                // Deterministic ±25% spread around the base delay keeps
                // chunks from marching in lockstep while staying replayable.
                let jitter =
                    delay.mul_f64((self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 / 4.0);
                self.interruptible_sleep(delay + jitter);
                Verdict::Forward
            }
            FaultKind::Stall { after, limit } => {
                if self.relayed + chunk.len() <= after {
                    return Verdict::Forward;
                }
                let allowed = after.saturating_sub(self.relayed);
                self.interruptible_sleep(limit);
                Verdict::CutAfter(allowed)
            }
            FaultKind::Drop { after } => {
                if self.relayed + chunk.len() <= after {
                    return Verdict::Forward;
                }
                Verdict::CutAfter(after.saturating_sub(self.relayed))
            }
            FaultKind::Corrupt { every_frames } => {
                self.tracker.corrupt(
                    chunk,
                    u64::from(every_frames.max(1)),
                    CorruptMode::Tag,
                    &mut self.rng,
                );
                Verdict::Forward
            }
            FaultKind::CorruptPayload { every_frames } => {
                self.tracker.corrupt(
                    chunk,
                    u64::from(every_frames.max(1)),
                    CorruptMode::AnyByte,
                    &mut self.rng,
                );
                Verdict::Forward
            }
        }
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done {
            return Ok(0);
        }
        let n = self.inner.read(buf)?;
        if n == 0 {
            return Ok(0);
        }
        match self.apply_read_fault(&mut buf[..n]) {
            Verdict::Forward => {
                self.relayed += n;
                Ok(n)
            }
            Verdict::CutAfter(allowed) => {
                // Everything past `allowed` is swallowed and the stream ends
                // (EOF on the next read) — the truncation/stall classes.
                self.done = true;
                self.relayed += allowed;
                Ok(allowed)
            }
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A TCP proxy injecting one [`FaultKind`] into the backend→client stream.
///
/// Point a router at [`FaultProxy::addr`] instead of the real backend and
/// every response byte stream runs through a [`FaultyStream`]. The fault
/// can be toggled at runtime with [`FaultProxy::set_enabled`] (e.g. to test
/// circuit-breaker recovery after a fault clears). Each accepted connection
/// applies the fault independently, seeded from the proxy seed and a
/// per-connection counter, so multi-connection runs are still replayable.
pub struct FaultProxy {
    addr: SocketAddr,
    enabled: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    state: Arc<ProxyState>,
}

#[derive(Default)]
struct ProxyState {
    /// Live sockets, shut down to unblock pump threads on proxy shutdown.
    sockets: Mutex<Vec<TcpStream>>,
    /// Pump threads to join on shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl FaultProxy {
    /// Starts a proxy on a fresh loopback port forwarding to `target`.
    ///
    /// # Errors
    ///
    /// Propagates listener-creation failures.
    pub fn spawn(target: SocketAddr, fault: FaultKind, seed: u64) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let enabled = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(ProxyState::default());
        let accept_thread = {
            let enabled = Arc::clone(&enabled);
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let mut connection: u64 = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    connection += 1;
                    let conn_seed = splitmix64(seed ^ connection);
                    if let Err(_error) =
                        relay_connection(client, target, fault, conn_seed, &enabled, &stop, &state)
                    {
                        // Upstream dial failed: the client socket just
                        // dropped, which the router sees as a refused/broken
                        // exchange — itself a fault worth routing around.
                        continue;
                    }
                }
            })
        };
        Ok(Self {
            addr,
            enabled,
            stop,
            accept_thread: Some(accept_thread),
            state,
        })
    }

    /// The proxy's listening address (give this to the router as the
    /// backend address).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Turns the fault on or off for *future* traffic; in-flight stalls run
    /// to completion.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Stops accepting, closes every proxied connection, and joins all
    /// proxy threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throw-away connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for socket in self.state.sockets.lock().expect("proxy sockets").drain(..) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let threads: Vec<JoinHandle<()>> = self
            .state
            .threads
            .lock()
            .expect("proxy threads")
            .drain(..)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// Sets up the two pump threads for one proxied connection.
fn relay_connection(
    client: TcpStream,
    target: SocketAddr,
    fault: FaultKind,
    seed: u64,
    enabled: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
    state: &Arc<ProxyState>,
) -> io::Result<()> {
    let upstream = TcpStream::connect_timeout(&target, Duration::from_secs(2))?;
    {
        let mut sockets = state.sockets.lock().expect("proxy sockets");
        if let Ok(socket) = client.try_clone() {
            sockets.push(socket);
        }
        if let Ok(socket) = upstream.try_clone() {
            sockets.push(socket);
        }
    }
    // Client → upstream: verbatim relay (requests always arrive intact).
    let forward = {
        let client = client.try_clone()?;
        let upstream = upstream.try_clone()?;
        std::thread::spawn(move || pump(client, upstream))
    };
    // Upstream → client: through the fault.
    let backward = {
        let faulty =
            FaultyStream::new(upstream, fault, seed, Arc::clone(enabled), Arc::clone(stop));
        std::thread::spawn(move || pump(faulty, client))
    };
    let mut threads = state.threads.lock().expect("proxy threads");
    threads.push(forward);
    threads.push(backward);
    Ok(())
}

/// Copies bytes until EOF or error, then shuts the destination down so the
/// peer observes the stream ending instead of a half-open hang.
fn pump(mut from: impl Read, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, read_frame, write_response, Response};

    fn frame_bytes() -> Vec<u8> {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            &Response::Ok {
                id: 3,
                argmax: 1,
                logits: vec![0.5, -0.25],
            },
        )
        .unwrap();
        wire
    }

    fn flags() -> (Arc<AtomicBool>, Arc<AtomicBool>) {
        (
            Arc::new(AtomicBool::new(true)),
            Arc::new(AtomicBool::new(false)),
        )
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        let mut rng = DeterministicRng::new(7);
        let mut replay = DeterministicRng::new(7);
        for _ in 0..16 {
            assert_eq!(rng.next_u64(), replay.next_u64());
        }
    }

    #[test]
    fn drop_fault_truncates_the_stream_at_the_cut() {
        let wire = frame_bytes();
        let (enabled, stop) = flags();
        // Cut mid-frame: 7 bytes of a much longer frame.
        let mut faulty =
            FaultyStream::new(&wire[..], FaultKind::Drop { after: 7 }, 1, enabled, stop);
        let mut received = Vec::new();
        faulty.read_to_end(&mut received).unwrap();
        assert_eq!(received, wire[..7].to_vec());
        // The truncated stream is a clean error/EOF for the proto reader,
        // never a hang.
        assert!(read_frame(&mut received.as_slice(), decode_response).is_err());
    }

    #[test]
    fn corrupt_fault_flips_exactly_the_tag_byte_of_selected_frames() {
        let mut wire = frame_bytes();
        wire.extend_from_slice(&frame_bytes());
        let frame_len = wire.len() / 2;
        let (enabled, stop) = flags();
        let mut faulty = FaultyStream::new(
            &wire[..],
            FaultKind::Corrupt { every_frames: 2 },
            1,
            enabled,
            stop,
        );
        let mut received = Vec::new();
        faulty.read_to_end(&mut received).unwrap();
        assert_eq!(received.len(), wire.len());
        // Frame 1 intact, frame 2's tag byte (offset 4 of the frame) flipped.
        assert_eq!(received[..frame_len], wire[..frame_len]);
        assert_eq!(received[frame_len + 4], wire[frame_len + 4] ^ 0x80);
        assert_eq!(received[frame_len + 5..], wire[frame_len + 5..]);
        // The corrupted frame is *detected*, not silently misparsed.
        let mut reader = &received[..];
        assert!(
            read_frame(&mut reader, decode_response).unwrap().is_some(),
            "frame 1 ok"
        );
        assert!(
            read_frame(&mut reader, decode_response).is_err(),
            "frame 2 detected"
        );
    }

    #[test]
    fn corrupt_payload_flips_one_seeded_bit_and_the_crc_catches_it() {
        let mut wire = frame_bytes();
        wire.extend_from_slice(&frame_bytes());
        let frame_len = wire.len() / 2;
        let (enabled, stop) = flags();
        let mut faulty = FaultyStream::new(
            &wire[..],
            FaultKind::CorruptPayload { every_frames: 2 },
            1,
            enabled,
            stop,
        );
        let mut received = Vec::new();
        faulty.read_to_end(&mut received).unwrap();
        assert_eq!(received.len(), wire.len());
        // Frame 1 intact; frame 2 differs in exactly one bit of one
        // payload byte (never the length header).
        assert_eq!(received[..frame_len], wire[..frame_len]);
        assert_eq!(
            received[frame_len..frame_len + 4],
            wire[frame_len..frame_len + 4]
        );
        let flipped: Vec<usize> = (frame_len..wire.len())
            .filter(|&i| received[i] != wire[i])
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one byte must differ");
        let i = flipped[0];
        assert_eq!((received[i] ^ wire[i]).count_ones(), 1, "exactly one bit");
        // The CRC trailer makes the corruption a typed detection, wherever
        // the bit landed (payload or the trailer itself).
        let mut reader = &received[..];
        assert!(
            read_frame(&mut reader, decode_response).unwrap().is_some(),
            "frame 1 ok"
        );
        assert!(
            read_frame(&mut reader, decode_response).is_err(),
            "frame 2 detected"
        );
        // Same seed, same stream → same flip: the fault is replayable.
        let (enabled, stop) = flags();
        let mut replay = FaultyStream::new(
            &wire[..],
            FaultKind::CorruptPayload { every_frames: 2 },
            1,
            enabled,
            stop,
        );
        let mut again = Vec::new();
        replay.read_to_end(&mut again).unwrap();
        assert_eq!(again, received);
    }

    #[test]
    fn disabled_fault_is_a_passthrough() {
        let wire = frame_bytes();
        let (enabled, stop) = flags();
        enabled.store(false, Ordering::SeqCst);
        let mut faulty =
            FaultyStream::new(&wire[..], FaultKind::Drop { after: 0 }, 1, enabled, stop);
        let mut received = Vec::new();
        faulty.read_to_end(&mut received).unwrap();
        assert_eq!(received, wire);
    }

    #[test]
    fn stall_fault_is_interruptible_by_stop() {
        let wire = frame_bytes();
        let (enabled, stop) = flags();
        stop.store(true, Ordering::SeqCst);
        let mut faulty = FaultyStream::new(
            &wire[..],
            FaultKind::Stall {
                after: 2,
                limit: Duration::from_secs(3600),
            },
            1,
            enabled,
            stop,
        );
        let start = std::time::Instant::now();
        let mut received = Vec::new();
        faulty.read_to_end(&mut received).unwrap();
        assert_eq!(received, wire[..2].to_vec());
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "a set stop flag must abort the stall sleep"
        );
    }
}
