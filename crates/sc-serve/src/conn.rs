//! One nonblocking framed connection for both tiers of the serving plane:
//! `serve`'s clients and `route`'s clients and backend channels are each a
//! [`FramedConn`] plus their own bookkeeping. Every socket is nonblocking
//! and sets `TCP_NODELAY` (frames are written whole; Nagle's algorithm
//! would only hold a pipelined reply behind the peer's delayed ACK).
//! Reading stops at the first frame that breaks framing or that the owner
//! rejects: no byte after a bad frame is decoded. The policies stay with
//! the tiers: which timeouts apply, and whether a failure closes one client
//! or kills a backend channel with every exchange on it.

use crate::proto::FrameDecoder;
use crate::reactor::{Interest, Poller};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Whether an I/O error means "the socket isn't ready" rather than "the
/// socket is broken".
pub(crate) fn is_would_block(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A poller-registered nonblocking socket: resumable frame decoding in, a
/// partially flushed output buffer out.
pub(crate) struct FramedConn {
    stream: TcpStream,
    /// The poller token this socket is registered under.
    token: u64,
    decoder: FrameDecoder,
    /// Serialized-but-unflushed output; `out_offset` marks the flushed
    /// prefix.
    outbuf: Vec<u8>,
    out_offset: usize,
    /// Last moment a write made progress while output was pending.
    last_write_progress: Instant,
    /// The read side is done (EOF, bad frame, socket error, or the owner
    /// closed it); the connection lives on only to flush its output.
    read_open: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl FramedConn {
    /// Accepts until `listener` runs dry, handing each set-up connection and
    /// its peer address to `admit`; each accepted socket takes the next
    /// token. A socket that fails setup is dropped. A transient accept error
    /// (aborted handshake, fd pressure) ends this readiness round rather
    /// than spinning.
    pub(crate) fn accept_all(
        listener: &TcpListener,
        poller: &mut Poller,
        next_token: &mut u64,
        mut admit: impl FnMut(Self, SocketAddr),
    ) {
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let token = *next_token;
                    *next_token += 1;
                    if let Ok(conn) = Self::register(stream, poller, token) {
                        admit(conn, peer);
                    }
                }
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Dials `addr` and registers the socket under `token`. The connect
    /// itself blocks for at most `timeout`: a refused dial fails in
    /// microseconds on loopback, and a std-only reactor has no
    /// connect-progress polling.
    pub(crate) fn connect(
        addr: SocketAddr,
        timeout: Duration,
        poller: &mut Poller,
        token: u64,
    ) -> io::Result<Self> {
        Self::register(TcpStream::connect_timeout(&addr, timeout)?, poller, token)
    }

    fn register(stream: TcpStream, poller: &mut Poller, token: u64) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        poller.register(&stream, token, Interest::Read)?;
        Ok(Self {
            stream,
            token,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_offset: 0,
            last_write_progress: Instant::now(),
            read_open: true,
            interest: Interest::Read,
        })
    }

    /// The poller token this connection is registered under.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Reads until the socket would block, handing each complete payload to
    /// `on_frame` together with the output buffer (anything written there
    /// goes out with the next [`flush`](Self::flush)). `on_frame` rejects a
    /// frame by returning an error.
    ///
    /// Returns the number of bytes read; a closed read side reads nothing.
    ///
    /// # Errors
    ///
    /// Closes the read side and returns why: `UnexpectedEof` when the peer
    /// closed its write side, the decoder's `InvalidData` for a frame with a
    /// bad length or checksum, `on_frame`'s error for a rejected frame, or
    /// the socket's error. Reading stops at that point.
    pub(crate) fn read_frames(
        &mut self,
        scratch: &mut [u8],
        mut on_frame: impl FnMut(&[u8], &mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<usize> {
        let mut total = 0;
        while self.read_open {
            let read = match self.stream.read(scratch) {
                Ok(0) => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection",
                )),
                Ok(bytes) => {
                    total += bytes;
                    self.decode(&scratch[..bytes], &mut on_frame)
                }
                Err(error) if is_would_block(&error) => return Ok(total),
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => Err(error),
            };
            if let Err(error) = read {
                self.read_open = false;
                return Err(error);
            }
        }
        Ok(total)
    }

    /// Feeds one read's bytes through the decoder, frame by frame.
    fn decode(
        &mut self,
        mut bytes: &[u8],
        on_frame: &mut impl FnMut(&[u8], &mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        while !bytes.is_empty() {
            bytes = &bytes[self.decoder.feed(bytes)?..];
            if let Some(payload) = self.decoder.frame() {
                let handled = on_frame(payload, &mut self.outbuf);
                self.decoder.take_frame();
                handled?;
            }
        }
        Ok(())
    }

    /// Where to serialize output; [`flush`](Self::flush) sends it.
    pub(crate) fn output(&mut self) -> &mut Vec<u8> {
        &mut self.outbuf
    }

    /// Writes pending output until the socket would block.
    ///
    /// # Errors
    ///
    /// A peer that takes no bytes (`WriteZero`) or a socket error: the
    /// output is undeliverable, so it is dropped and the read side closes.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        while self.pending_output() {
            let error = match self.stream.write(&self.outbuf[self.out_offset..]) {
                Ok(0) => io::Error::new(io::ErrorKind::WriteZero, "peer stopped accepting bytes"),
                Ok(bytes) => {
                    self.out_offset += bytes;
                    self.last_write_progress = Instant::now();
                    continue;
                }
                Err(error) if is_would_block(&error) => return Ok(()),
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => error,
            };
            self.abandon();
            return Err(error);
        }
        self.outbuf.clear();
        self.out_offset = 0;
        self.last_write_progress = Instant::now();
        Ok(())
    }

    /// Whether output is waiting for the socket.
    pub(crate) fn pending_output(&self) -> bool {
        self.out_offset < self.outbuf.len()
    }

    /// Whether output has been pending with zero write progress for at
    /// least `budget`: the peer stopped draining its socket.
    pub(crate) fn write_stalled(&self, now: Instant, budget: Duration) -> bool {
        self.pending_output() && now.saturating_duration_since(self.last_write_progress) >= budget
    }

    /// Drops undeliverable output and closes the read side.
    pub(crate) fn abandon(&mut self) {
        self.outbuf.clear();
        self.out_offset = 0;
        self.read_open = false;
    }

    /// Whether the read side is still open.
    pub(crate) fn read_open(&self) -> bool {
        self.read_open
    }

    /// Stops reading; pending output still flushes.
    pub(crate) fn close_read(&mut self) {
        self.read_open = false;
    }

    /// Whether part of the next frame has arrived but not all of it.
    pub(crate) fn mid_frame(&self) -> bool {
        self.decoder.mid_frame()
    }

    /// Whether the read side is closed and all output is flushed or
    /// dropped: nothing is left to do on the socket.
    pub(crate) fn finished(&self) -> bool {
        !self.read_open && !self.pending_output()
    }

    /// Brings the registered interest in line with the connection's state:
    /// read while the read side is open, write while output is pending (and
    /// write alone once reading stopped, so the owner sees it finish).
    pub(crate) fn reconcile_interest(&mut self, poller: &mut Poller) {
        let desired = match (self.read_open, self.pending_output()) {
            (true, true) => Interest::ReadWrite,
            (true, false) => Interest::Read,
            (false, _) => Interest::Write,
        };
        if desired != self.interest && poller.reregister(&self.stream, self.token, desired).is_ok()
        {
            self.interest = desired;
        }
    }

    /// Deregisters the socket and closes it.
    pub(crate) fn close(self, poller: &mut Poller) {
        let _ = poller.deregister(&self.stream, self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_message, write_ping, Message};

    /// A registered server-side connection and the client socket it
    /// accepted.
    fn pair(poller: &mut Poller) -> (FramedConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut next_token = 5;
        let mut accepted = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while accepted.is_empty() {
            FramedConn::accept_all(&listener, poller, &mut next_token, |conn, _| {
                accepted.push(conn);
            });
            assert!(Instant::now() < deadline, "connection never accepted");
        }
        assert_eq!(next_token, 6);
        (accepted.pop().unwrap(), client)
    }

    fn ping(nonce: u64) -> Vec<u8> {
        let mut frame = Vec::new();
        write_ping(&mut frame, nonce).unwrap();
        frame
    }

    /// Reads until `conn` reports the nonces of `want` ping frames or an
    /// error; returns the nonces and the last read's result.
    fn read_pings(
        conn: &mut FramedConn,
        scratch: &mut [u8],
        want: usize,
    ) -> (Vec<u64>, io::Result<usize>) {
        let mut nonces = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let read = conn.read_frames(scratch, |payload, _| match decode_message(payload)? {
                Message::Ping { nonce } => {
                    nonces.push(nonce);
                    Ok(())
                }
                other => panic!("unexpected frame {other:?}"),
            });
            if read.is_err() || nonces.len() >= want {
                return (nonces, read);
            }
            assert!(Instant::now() < deadline, "frames never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn accepted_sockets_are_nonblocking_and_nodelay() {
        let mut poller = Poller::new().unwrap();
        let (conn, _client) = pair(&mut poller);
        assert_eq!(conn.token(), 5);
        assert!(
            conn.stream.nodelay().unwrap(),
            "accepted socket without TCP_NODELAY"
        );
        let error = (&conn.stream).read(&mut [0u8; 8]).unwrap_err();
        assert!(is_would_block(&error), "accepted socket blocks: {error}");
    }

    #[test]
    fn a_frame_fed_one_byte_per_read_arrives_whole() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        client.write_all(&ping(42)).unwrap();
        let (nonces, read) = read_pings(&mut conn, &mut [0u8; 1], 1);
        assert_eq!(nonces, vec![42]);
        assert!(read.is_ok() && conn.read_open());
    }

    #[test]
    fn two_frames_in_one_read_are_both_delivered_in_order() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        let mut bytes = ping(1);
        bytes.extend(ping(2));
        client.write_all(&bytes).unwrap();
        // Wait until both frames sit in the socket, so one read takes both.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(conn.stream.peek(&mut [0u8; 64]), Ok(n) if n == bytes.len()) {
            assert!(Instant::now() < deadline, "bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (nonces, read) = read_pings(&mut conn, &mut [0u8; 4096], 2);
        assert_eq!(nonces, vec![1, 2]);
        assert_eq!(read.unwrap(), bytes.len(), "one call read both frames");
    }

    #[test]
    fn a_bad_checksum_ends_the_read_side_before_later_frames() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        let mut bytes = ping(1);
        *bytes.last_mut().unwrap() ^= 0xff;
        bytes.extend(ping(2));
        client.write_all(&bytes).unwrap();
        let (nonces, read) = read_pings(&mut conn, &mut [0u8; 4096], 1);
        assert!(nonces.is_empty(), "a frame after the bad one was decoded");
        assert_eq!(read.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(!conn.read_open());
        assert_eq!(conn.read_frames(&mut [0u8; 64], |_, _| Ok(())).unwrap(), 0);
    }

    #[test]
    fn a_rejected_frame_ends_the_read_side_before_later_frames() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        let mut bytes = ping(1);
        bytes.extend(ping(2));
        client.write_all(&bytes).unwrap();
        let mut seen = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        let read = loop {
            let read = conn.read_frames(&mut [0u8; 4096], |_, _| {
                seen += 1;
                Err(io::Error::new(io::ErrorKind::InvalidData, "rejected"))
            });
            if read.is_err() {
                break read;
            }
            assert!(Instant::now() < deadline, "frames never arrived");
        };
        assert_eq!(seen, 1, "reading continued past the rejected frame");
        assert_eq!(read.unwrap_err().to_string(), "rejected");
        assert!(!conn.read_open());
    }

    #[test]
    fn peer_eof_is_reported() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        client.write_all(&ping(9)).unwrap();
        drop(client);
        let (nonces, read) = read_pings(&mut conn, &mut [0u8; 4096], 2);
        assert_eq!(nonces, vec![9], "the frame before EOF still arrives");
        assert_eq!(read.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(!conn.read_open());
    }

    #[test]
    fn output_flushes_partially_then_completely_in_order() {
        let mut poller = Poller::new().unwrap();
        let (mut conn, mut client) = pair(&mut poller);
        let sent: Vec<u8> = (0..8usize << 20).map(|i| (i % 251) as u8).collect();
        conn.output().extend_from_slice(&sent);
        // The peer is not reading: the kernel buffers fill and the flush
        // stops at WouldBlock with output still pending.
        conn.flush().unwrap();
        assert!(conn.pending_output(), "8 MB fit in the socket buffers");
        let later = Instant::now() + Duration::from_secs(1);
        assert!(conn.write_stalled(later, Duration::from_millis(500)));
        assert!(!conn.write_stalled(Instant::now(), Duration::from_secs(60)));

        let reader = std::thread::spawn(move || {
            let mut received = vec![0u8; 8 << 20];
            client.read_exact(&mut received).unwrap();
            received
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.pending_output() {
            conn.flush().unwrap();
            assert!(Instant::now() < deadline, "output never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(reader.join().unwrap() == sent, "bytes reordered or lost");
        assert!(conn.read_open(), "a complete flush leaves reading alone");
    }
}
