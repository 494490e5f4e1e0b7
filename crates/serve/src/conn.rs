//! One connection's policy, sans-IO (`docs/SERVE_PROTOCOL.md` §6.2):
//! frame assembly, the read, write and idle deadlines, the drain-done
//! check, and which error frame and close reason end the connection.
//! Time is `now`, the [`Duration`] since the connection opened.

#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "policy over untrusted bytes in virtual time: no clock, thread or lock, no panic"
)]

use crate::protocol::{ERR_FRAME_TOO_LARGE, ERR_TIMEOUT, MAX_FRAME_LEN};
use crate::transport::ServerConfig;
use std::fmt;
use std::time::Duration;

/// The error a [`FrameAssembler`] can hit: a length prefix beyond the
/// configured ceiling. The stream cannot be resynchronized past an
/// untrusted length, so the connection must close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    /// The claimed envelope length.
    pub len: u32,
    /// The ceiling it exceeded.
    pub max: u32,
}

impl fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame length {} exceeds ceiling {}", self.len, self.max)
    }
}

impl std::error::Error for OversizedFrame {}

/// Incremental, sans-IO frame assembly: push arbitrary byte chunks in,
/// pull whole envelopes (without their length prefix) out. Holds at
/// most one partial frame; consumed bytes are compacted away, so the
/// buffer is bounded by the frame ceiling plus one push.
#[derive(Debug)]
pub struct FrameAssembler {
    max_frame_len: u32,
    buf: Vec<u8>,
    at: usize,
}

impl FrameAssembler {
    /// An empty assembler enforcing `max_frame_len` (envelopes above
    /// it yield [`OversizedFrame`] without being buffered).
    pub fn new(max_frame_len: u32) -> FrameAssembler {
        FrameAssembler {
            max_frame_len,
            buf: Vec::new(),
            at: 0,
        }
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `at` is consumed.
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete envelope, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, OversizedFrame> {
        let avail = self.buf.get(self.at..).unwrap_or_default();
        let Some(&[l0, l1, l2, l3]) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len > self.max_frame_len {
            return Err(OversizedFrame {
                len,
                max: self.max_frame_len,
            });
        }
        // `4 + len` can only exceed `usize` under a near-word-limit
        // `max_frame_len` on a 32-bit target; such a frame can never
        // complete, so report it as still-assembling and let the read
        // deadline close the connection.
        let Some(end) = usize::try_from(len).ok().and_then(|l| l.checked_add(4)) else {
            return Ok(None);
        };
        let Some(envelope) = avail.get(4..end) else {
            return Ok(None);
        };
        let frame = envelope.to_vec();
        self.at += end;
        Ok(Some(frame))
    }

    /// Is a partial frame (or unconsumed partial length) pending?
    pub(crate) fn mid_frame(&self) -> bool {
        self.at < self.buf.len()
    }
}

/// What the driver does next.
pub(crate) enum Step {
    /// Execute this envelope and write its response.
    Serve(Vec<u8>),
    /// Write one `Error` frame with this code, then close.
    Fail(u8, Close),
    /// Close without a frame.
    Close(Close),
    /// Nothing yet: read, or keep writing, and report back.
    Wait,
}

/// Why a connection closed. The driver counts the last three: a broken
/// read deadline, frame ceiling or write deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    Peer,
    Idle,
    Drained,
    ReadTimeout,
    Oversized,
    WriteTimeout,
}

/// The policy state of one connection; every time in it is a `now`.
pub(crate) struct ConnState<'c> {
    cfg: &'c ServerConfig,
    asm: FrameAssembler,
    /// When bytes last arrived or a response was last written.
    active_at: Duration,
    /// Since when unconsumed bytes have waited: the read deadline of
    /// the frame they start runs from here.
    frame_at: Option<Duration>,
    /// When the frame being written, if any, started.
    write_at: Option<Duration>,
}

impl<'c> ConnState<'c> {
    /// A connection opened at `now`, under the protocol's frame ceiling
    /// and `cfg`'s deadlines.
    pub(crate) fn new(cfg: &'c ServerConfig, now: Duration) -> ConnState<'c> {
        ConnState {
            cfg,
            asm: FrameAssembler::new(MAX_FRAME_LEN),
            active_at: now,
            frame_at: None,
            write_at: None,
        }
    }

    /// Bytes read at `now`, and the step they lead to. A frame they
    /// complete is served even past its read deadline; one they leave
    /// incomplete past it fails, so a sender that drips bytes faster
    /// than the socket tick cannot hold a frame open forever.
    pub(crate) fn on_bytes(&mut self, now: Duration, bytes: &[u8]) -> Step {
        self.asm.push(bytes);
        self.active_at = now;
        if self.asm.mid_frame() {
            self.frame_at.get_or_insert(now);
        }
        match (self.next_frame(), self.frame_at) {
            (Step::Wait, Some(at)) if now.saturating_sub(at) >= self.cfg.read_timeout => {
                Step::Fail(ERR_TIMEOUT, Close::ReadTimeout)
            }
            (step, _) => step,
        }
    }

    /// The next buffered envelope, or the close an untrusted length
    /// forces; no deadline is due between two frames of one read.
    pub(crate) fn next_frame(&mut self) -> Step {
        match self.asm.next_frame() {
            Ok(Some(envelope)) => Step::Serve(envelope),
            Ok(None) => Step::Wait,
            Err(_) => Step::Fail(ERR_FRAME_TOO_LARGE, Close::Oversized),
        }
    }

    /// A socket tick passed at `now` with nothing moved. A write or a
    /// partial frame answers only to its own deadline: never to a drain
    /// or the idle timeout.
    pub(crate) fn on_tick(&self, now: Duration, draining: bool) -> Step {
        let (cfg, waited) = (self.cfg, |since: Duration| now.saturating_sub(since));
        match (self.write_at, self.frame_at) {
            (Some(at), _) if waited(at) >= cfg.write_timeout => Step::Close(Close::WriteTimeout),
            (None, Some(at)) if waited(at) >= cfg.read_timeout => {
                Step::Fail(ERR_TIMEOUT, Close::ReadTimeout)
            }
            (None, None) if draining => Step::Close(Close::Drained),
            (None, None) if waited(self.active_at) >= cfg.idle_timeout => Step::Close(Close::Idle),
            _ => Step::Wait,
        }
    }

    /// A frame starts writing at `now`.
    pub(crate) fn on_write(&mut self, now: Duration) {
        self.write_at = Some(now);
    }

    /// A response finished writing at `now`: the idle clock restarts,
    /// and so does the read deadline of a frame buffered behind it.
    pub(crate) fn on_written(&mut self, now: Duration) {
        self.write_at = None;
        self.active_at = now;
        self.frame_at = self.asm.mid_frame().then_some(now);
    }
}

#[cfg(test)]
mod tests {
    //! Connection scripts in virtual time. Each row is a peer's
    //! behaviour and the exact transcript a [`ConnState`], driven the
    //! way the transport's driver drives it, must produce. Time is a
    //! millisecond counter that jumps to the next event or [`TICK`]:
    //! nothing sleeps.

    use super::*;
    use crate::protocol::{encode_request, ERR_FRAME_TOO_LARGE, ERR_TIMEOUT};
    use crate::transport::TICK;
    use crate::Request;

    /// What the peer saw, at a virtual millisecond.
    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        /// The response to this envelope was fully written.
        Served(Vec<u8>),
        /// An `Error` frame with this code was written.
        Error(u8),
        /// The connection closed for this reason.
        Closed(Close),
    }

    struct Script {
        name: &'static str,
        cfg: ServerConfig,
        /// What the peer sends, and when; an empty chunk hangs up.
        sends: Vec<(u64, Vec<u8>)>,
        /// When the server starts draining.
        drain_at: Option<u64>,
        /// The peer reads no response bytes before this.
        reads_from: u64,
        /// The run ends once the next tick would pass this.
        until: u64,
        expect: Vec<(u64, Seen)>,
    }

    /// Run `s` through a [`ConnState`] exactly as the transport's
    /// driver does. A read returns the next send due within one tick,
    /// or the tick; a write blocks, tick by tick, until the peer reads.
    fn run(s: &Script) -> Vec<(u64, Seen)> {
        let tick = TICK.as_millis() as u64;
        let ms = Duration::from_millis;
        let mut st = ConnState::new(&s.cfg, ms(0));
        let mut sends = s.sends.iter().peekable();
        let (mut t, mut seen) = (0, Vec::new());
        loop {
            let step = match st.next_frame() {
                Step::Wait => {
                    let draining = s.drain_at.is_some_and(|d| d <= t);
                    match sends.next_if(|(at, _)| *at <= t + tick) {
                        Some((at, bytes)) if bytes.is_empty() => {
                            t = t.max(*at);
                            Step::Close(Close::Peer)
                        }
                        Some((at, bytes)) => {
                            t = t.max(*at);
                            st.on_bytes(ms(t), bytes)
                        }
                        None if t + tick > s.until => return seen,
                        None => {
                            t += tick;
                            st.on_tick(ms(t), draining)
                        }
                    }
                }
                step => step,
            };
            let (frame, then) = match step {
                Step::Serve(envelope) => (Seen::Served(envelope), None),
                Step::Fail(code, why) => (Seen::Error(code), Some(why)),
                Step::Close(why) => {
                    seen.push((t, Seen::Closed(why)));
                    return seen;
                }
                Step::Wait => continue,
            };
            st.on_write(ms(t));
            let cut = loop {
                if s.reads_from <= t + tick {
                    t = t.max(s.reads_from);
                    break None;
                }
                t += tick;
                if let Step::Close(why) = st.on_tick(ms(t), false) {
                    break Some(why);
                }
            };
            if cut.is_none() {
                seen.push((t, frame));
            }
            match then.or(cut) {
                Some(why) => {
                    seen.push((t, Seen::Closed(why)));
                    return seen;
                }
                None => st.on_written(ms(t)),
            }
        }
    }

    /// Deadlines in milliseconds.
    fn cfg(read: u64, write: u64, idle: u64) -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(read),
            write_timeout: Duration::from_millis(write),
            idle_timeout: Duration::from_millis(idle),
            ..ServerConfig::default()
        }
    }

    /// A script with no drain, a peer that reads at once, and an hour
    /// to run.
    fn script(name: &'static str, cfg: ServerConfig, sends: Vec<(u64, Vec<u8>)>) -> Script {
        Script {
            name,
            cfg,
            sends,
            drain_at: None,
            reads_from: 0,
            until: 3_600_000,
            expect: Vec::new(),
        }
    }

    /// A framed `len`-byte envelope of `fill` bytes.
    fn framed(len: u32, fill: u8) -> Vec<u8> {
        let mut f = len.to_le_bytes().to_vec();
        f.resize(4 + len as usize, fill);
        f
    }

    #[test]
    fn connection_scripts() {
        use Seen::{Closed, Error, Served};
        let ping = encode_request(&Request::Ping);
        let envelope = || ping[4..].to_vec();
        let half = ping[..ping.len() / 2].to_vec();
        let mut ping_then_half = ping.clone();
        ping_then_half.extend_from_slice(&half);
        let drip = ping
            .iter()
            .enumerate()
            .map(|(i, &b)| (2 * i as u64, vec![b]));
        let last_byte = 2 * (ping.len() as u64 - 1);
        let ceiling = MAX_FRAME_LEN as usize;
        // One byte every 20 ms, inside every socket tick: only the
        // bytes themselves can see the deadline pass.
        let slow_drip = framed(64, 7)
            .into_iter()
            .enumerate()
            .map(|(i, b)| (20 * i as u64, vec![b]))
            .collect();
        let scripts = [
            Script {
                expect: vec![(400, Error(ERR_TIMEOUT)), (400, Closed(Close::ReadTimeout))],
                ..script(
                    "stalled mid-frame sender",
                    cfg(400, 400, 5000),
                    vec![(0, half.clone())],
                )
            },
            Script {
                expect: vec![
                    (1500, Error(ERR_TIMEOUT)),
                    (1500, Closed(Close::ReadTimeout)),
                ],
                ..script(
                    "idle shorter than read",
                    cfg(1500, 400, 300),
                    vec![(0, half.clone())],
                )
            },
            Script {
                expect: vec![(300, Closed(Close::Idle))],
                ..script("idle at the idle timeout", cfg(400, 400, 300), vec![])
            },
            Script {
                until: 300 - TICK.as_millis() as u64,
                ..script("one tick before idle", cfg(400, 400, 300), vec![])
            },
            Script {
                reads_from: 250,
                expect: vec![(250, Served(envelope())), (550, Closed(Close::Idle))],
                ..script(
                    "a response resets idle",
                    cfg(400, 400, 300),
                    vec![(100, ping.clone())],
                )
            },
            Script {
                expect: vec![(last_byte, Served(envelope())), (200, Closed(Close::Peer))],
                ..script(
                    "byte-at-a-time sender",
                    cfg(400, 400, 5000),
                    drip.chain([(200, vec![])]).collect(),
                )
            },
            Script {
                expect: vec![(400, Error(ERR_TIMEOUT)), (400, Closed(Close::ReadTimeout))],
                ..script("slow-drip sender", cfg(400, 400, 5000), slow_drip)
            },
            Script {
                reads_from: 300,
                expect: vec![
                    (300, Served(envelope())),
                    (700, Error(ERR_TIMEOUT)),
                    (700, Closed(Close::ReadTimeout)),
                ],
                ..script(
                    "pipelined partial",
                    cfg(400, 400, 5000),
                    vec![(0, ping_then_half)],
                )
            },
            Script {
                expect: vec![
                    (0, Served(vec![1; ceiling - 1])),
                    (10, Served(vec![2; ceiling])),
                    (20, Closed(Close::Peer)),
                ],
                ..script(
                    "ceiling - 1 and ceiling",
                    cfg(400, 400, 5000),
                    vec![
                        (0, framed(MAX_FRAME_LEN - 1, 1)),
                        (10, framed(MAX_FRAME_LEN, 2)),
                        (20, vec![]),
                    ],
                )
            },
            Script {
                expect: vec![
                    (0, Error(ERR_FRAME_TOO_LARGE)),
                    (0, Closed(Close::Oversized)),
                ],
                ..script(
                    "ceiling + 1",
                    cfg(400, 400, 5000),
                    vec![(0, (MAX_FRAME_LEN + 1).to_le_bytes().into())],
                )
            },
            Script {
                drain_at: Some(10),
                expect: vec![(0, Served(envelope())), (50, Closed(Close::Drained))],
                ..script("drain, quiet", cfg(400, 400, 5000), vec![(0, ping.clone())])
            },
            Script {
                drain_at: Some(10),
                expect: vec![(400, Error(ERR_TIMEOUT)), (400, Closed(Close::ReadTimeout))],
                ..script("drain while partial", cfg(400, 400, 5000), vec![(0, half)])
            },
            Script {
                reads_from: u64::MAX,
                drain_at: Some(10),
                expect: vec![(400, Closed(Close::WriteTimeout))],
                ..script(
                    "never-reading peer",
                    cfg(400, 400, 5000),
                    vec![(0, ping.clone())],
                )
            },
        ];
        for s in &scripts {
            assert_eq!(run(s), s.expect, "script {:?}", s.name);
        }
    }

    /// Bytes buffered and not yet consumed.
    fn buffered(asm: &FrameAssembler) -> usize {
        asm.buf.len() - asm.at
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let framed = encode_request(&Request::Ping);
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        for &b in &framed[..framed.len() - 1] {
            asm.push(&[b]);
            assert!(asm.next_frame().unwrap().is_none());
            assert!(asm.mid_frame());
        }
        asm.push(&framed[framed.len() - 1..]);
        let frame = asm.next_frame().unwrap().expect("complete");
        assert_eq!(frame, framed[4..].to_vec());
        assert!(!asm.mid_frame());
        assert_eq!(buffered(&asm), 0);
    }

    #[test]
    fn assembler_splits_coalesced_frames() {
        let mut stream = encode_request(&Request::Ping);
        stream.extend_from_slice(&encode_request(&Request::Lookup {
            addr: "::1".parse().unwrap(),
        }));
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        asm.push(&stream);
        assert!(asm.next_frame().unwrap().is_some());
        assert!(asm.next_frame().unwrap().is_some());
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_oversized_length_without_buffering_it() {
        let mut asm = FrameAssembler::new(1024);
        asm.push(&u32::MAX.to_le_bytes());
        let err = asm.next_frame().unwrap_err();
        assert_eq!(err.len, u32::MAX);
        assert_eq!(err.max, 1024);
        assert!(buffered(&asm) < 8, "length was not allocated");
    }

    #[test]
    fn assembler_resumes_after_partial_length_and_partial_body() {
        // Regression: the length prefix may straddle pushes, and a
        // complete prefix with a torn body must leave the buffer
        // untouched so a later push completes the frame.
        let mut asm = FrameAssembler::new(1024);
        asm.push(&[3, 0]);
        assert!(asm.next_frame().unwrap().is_none());
        asm.push(&[0, 0, 9]);
        assert!(asm.next_frame().unwrap().is_none());
        assert_eq!(buffered(&asm), 5);
        asm.push(&[8, 7]);
        assert_eq!(asm.next_frame().unwrap().unwrap(), vec![9, 8, 7]);
        assert_eq!(buffered(&asm), 0);
    }

    #[test]
    fn assembler_yields_zero_length_frame_at_exact_boundary() {
        let mut asm = FrameAssembler::new(1024);
        asm.push(&0u32.to_le_bytes());
        assert_eq!(asm.next_frame().unwrap().unwrap(), Vec::<u8>::new());
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_accepts_frame_exactly_at_the_ceiling() {
        let mut asm = FrameAssembler::new(8);
        asm.push(&8u32.to_le_bytes());
        asm.push(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(asm.next_frame().unwrap().unwrap().len(), 8);
    }
}
