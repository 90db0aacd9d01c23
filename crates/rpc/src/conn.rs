//! Per-connection state machine for the event-loop server.
//!
//! One [`Connection`] owns a nonblocking socket and moves bytes through
//! four stages, each driven by readiness rather than by a blocked thread:
//!
//! ```text
//! readable ─▶ rbuf accumulate ─▶ frame parse ─▶ pending slots ─▶ wbuf drain
//!             (on_readable)      (parse_frames)  (fill, in seq    (flush, on
//!                                                 order)           writable)
//! ```
//!
//! **Pipelining.** A client may send many frames without awaiting
//! responses. Each parsed request claims a *slot* in an ordered queue; a
//! slot is either filled immediately at the edge (inbox saturation, decode
//! errors) or later by the service thread's reply. [`Connection::flush`]
//! only serializes filled slots from the *front* of the queue, so responses
//! always leave in request order no matter what order answers arrive in.
//!
//! **Backpressure watermarks.** The outbound buffer has a high-water mark:
//! once a slow reader lets it grow past [`HIGH_WATER`], the connection's
//! desired interest drops `READABLE` (the poller stops reporting its bytes,
//! TCP flow control pushes back on the client) until the outbox drains
//! below [`LOW_WATER`]. The pending-slot queue is bounded by the server's
//! pipeline depth the same way: at capacity, reading pauses until a slot
//! frees.

use crate::protocol::{
    check_frame_len, decode, encode, frame_bytes, frame_from_buf, ErrorFrame, ErrorKind,
    FrameError, Request, Response,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Outbox bytes above which a connection stops reading new requests.
pub(crate) const HIGH_WATER: usize = 256 * 1024;

/// Outbox bytes below which a read-paused connection resumes reading.
pub(crate) const LOW_WATER: usize = 64 * 1024;

/// Bytes pulled off the socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Soft cap on the unparsed inbound buffer: one maximum frame plus its
/// header always fits, so a compliant client can never deadlock, but a
/// firehose of tiny frames cannot grow the buffer without bound while the
/// pipeline-depth gate holds parsing back.
const RBUF_CAP: usize = crate::protocol::MAX_FRAME_LEN as usize + 5;

/// One in-flight request: parsed, awaiting (or holding) its response.
struct Slot {
    /// Per-connection arrival index; replies route back by `(conn, seq)`.
    seq: u64,
    /// `None` until the service thread answers; edge rejections are born
    /// filled.
    response: Option<Response>,
    /// This slot's request was a `Shutdown` handed to the service thread:
    /// filling it also begins closing the connection (the `Bye` is the last
    /// frame the client gets).
    bye: bool,
}

/// One client connection owned by the event loop.
pub(crate) struct Connection {
    /// Server-lifetime-unique id; never reused, unlike slab slots, so a
    /// late reply for a closed connection can never reach a new one.
    pub id: u64,
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Whether this connection holds a slot under `max_connections`
    /// (cap-bounced connections don't — they exist only to carry one
    /// `Saturated` frame out).
    pub counted: bool,
    /// Wall-clock instant of the last byte moved in either direction; the
    /// idle sweep compares it against the server's idle timeout.
    pub last_activity: Instant,
    /// The interest bits currently registered with the poller; the pump
    /// only issues `reregister` syscalls when the desired bits differ.
    pub registered_interest: u8,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<Slot>,
    next_seq: u64,
    close_after_flush: bool,
    peer_closed: bool,
    broken: bool,
    read_paused: bool,
}

impl Connection {
    /// Wraps an accepted socket: nonblocking, Nagle off.
    pub fn new(id: u64, stream: TcpStream, counted: bool) -> io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            id,
            stream,
            counted,
            last_activity: Instant::now(),
            registered_interest: 0,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            close_after_flush: false,
            peer_closed: false,
            broken: false,
            read_paused: false,
        })
    }

    /// A cap-bounced connection: it carries exactly one pre-filled response
    /// frame (the typed `Saturated` refusal) and closes once it drains.
    pub fn reject(id: u64, stream: TcpStream, response: Response) -> io::Result<Connection> {
        let mut conn = Connection::new(id, stream, false)?;
        conn.pending.push_back(Slot {
            seq: 0,
            response: Some(response),
            bye: false,
        });
        conn.next_seq = 1;
        conn.close_after_flush = true;
        Ok(conn)
    }

    /// Drains the socket's receive queue into the accumulation buffer
    /// (until `WouldBlock`, EOF, or the buffer's soft cap).
    pub fn on_readable(&mut self) {
        if self.broken || self.peer_closed {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() < RBUF_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
    }

    /// Parses complete frames off the front of the inbound buffer — at most
    /// up to `depth` in-flight slots — and claims a response slot for each.
    ///
    /// `sink` receives `(conn_id, seq, request)` for every well-formed
    /// request and decides where it goes: `None` means it was enqueued for
    /// the service thread (the slot fills later via [`Connection::fill`]);
    /// `Some(response)` is an edge answer (inbox saturation, shutdown) that
    /// fills the slot immediately — still delivered in request order, since
    /// only front-filled slots flush.
    ///
    /// Malformed payloads inside an intact frame answer `BadRequest` and
    /// the connection lives on (length-prefixed framing stays synchronized);
    /// frame-level poison (bad length prefix, version skew) answers once
    /// and then closes, because the byte stream can never resynchronize.
    ///
    /// Returns the number of frames consumed.
    pub fn parse_frames(
        &mut self,
        depth: usize,
        sink: &mut dyn FnMut(u64, u64, Request) -> Option<Response>,
    ) -> usize {
        let mut parsed = 0;
        while !self.close_after_flush && !self.broken && self.pending.len() < depth {
            match frame_from_buf(&self.rbuf) {
                Ok(None) => break,
                Ok(Some((payload, consumed))) => {
                    self.rbuf.drain(..consumed);
                    parsed += 1;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    match decode::<Request>(&payload) {
                        Ok(request) => {
                            let shutdown = matches!(request, Request::Shutdown);
                            let response = sink(self.id, seq, request);
                            let bye = shutdown && response.is_none();
                            self.pending.push_back(Slot { seq, response, bye });
                        }
                        Err(e) => self.pending.push_back(Slot {
                            seq,
                            response: Some(Response::Error(ErrorFrame {
                                kind: ErrorKind::BadRequest,
                                message: e.to_string(),
                                retry_after_secs: None,
                            })),
                            bye: false,
                        }),
                    }
                }
                Err(e) => {
                    let kind = match &e {
                        FrameError::Version(_) => ErrorKind::VersionMismatch,
                        _ => ErrorKind::BadRequest,
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.pending.push_back(Slot {
                        seq,
                        response: Some(Response::Error(ErrorFrame {
                            kind,
                            message: e.to_string(),
                            retry_after_secs: None,
                        })),
                        bye: false,
                    });
                    self.rbuf.clear();
                    self.close_after_flush = true;
                    break;
                }
            }
        }
        parsed
    }

    /// Routes one service reply into its slot. Replies for slots this
    /// connection no longer holds (it never happens under the routing
    /// contract, but a defensive server drops rather than panics) are
    /// ignored.
    pub fn fill(&mut self, seq: u64, response: Response) {
        if let Some(slot) = self
            .pending
            .iter_mut()
            .find(|s| s.seq == seq && s.response.is_none())
        {
            if slot.bye {
                self.close_after_flush = true;
            }
            slot.response = Some(response);
        }
    }

    /// Fills every still-unanswered slot with `response` — the shutdown
    /// drain's "the service thread is gone" path.
    pub fn fill_all_unanswered(&mut self, response: &Response) {
        for slot in self.pending.iter_mut() {
            if slot.response.is_none() {
                slot.response = Some(response.clone());
            }
        }
    }

    /// Whether any slot is still waiting on the service thread — such a
    /// connection is *not* idle, however long its socket has been silent.
    pub fn awaiting_service(&self) -> bool {
        self.pending.iter().any(|s| s.response.is_none())
    }

    /// Serializes every answered front slot into the outbox and drains as
    /// much of it as the socket accepts without blocking.
    pub fn flush(&mut self) {
        while let Some(front) = self.pending.front() {
            if front.response.is_none() {
                break;
            }
            let slot = self.pending.pop_front().expect("front exists");
            let response = slot.response.expect("front is answered");
            let mut payload = encode(&response);
            if let Err(e) = check_frame_len(&payload) {
                payload = encode(&Response::Error(ErrorFrame {
                    kind: ErrorKind::TooLarge,
                    message: e.to_string(),
                    retry_after_secs: None,
                }));
            }
            self.wbuf.extend_from_slice(&frame_bytes(&payload));
        }
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > HIGH_WATER {
            // Reclaim the drained prefix once it outweighs what remains.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Bytes serialized but not yet accepted by the socket.
    pub fn outbox_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The interest bits this connection wants from the poller right now:
    /// `WRITABLE` while the outbox holds bytes; `READABLE` unless closing,
    /// at pipeline capacity, or read-paused by the outbox watermark (pause
    /// at [`HIGH_WATER`], resume at [`LOW_WATER`] — hysteresis, so a
    /// hovering outbox doesn't flap interest every frame).
    pub fn desired_interest(&mut self, depth: usize) -> u8 {
        let out = self.outbox_bytes();
        if out >= HIGH_WATER {
            self.read_paused = true;
        } else if out <= LOW_WATER {
            self.read_paused = false;
        }
        let mut interest = 0;
        if out > 0 {
            interest |= crate::poll::WRITABLE;
        }
        let closing = self.close_after_flush || self.peer_closed || self.broken;
        if !closing && !self.read_paused && self.pending.len() < depth {
            interest |= crate::poll::READABLE;
        }
        interest
    }

    /// Begins a graceful close: everything already answered still flushes,
    /// then the socket drops.
    pub fn begin_close(&mut self) {
        self.close_after_flush = true;
    }

    /// Whether the event loop should drop this connection now: the socket
    /// broke, or it is closing (client EOF or server-initiated) with no
    /// response left to deliver.
    pub fn should_close(&self) -> bool {
        self.broken
            || ((self.close_after_flush || self.peer_closed)
                && self.pending.is_empty()
                && self.outbox_bytes() == 0
                && (self.close_after_flush || !self.has_buffered_frames()))
    }

    /// Whether the inbound buffer still holds at least one complete frame —
    /// a half-closed client (sent its pipeline, shut down its write side)
    /// is served to the last frame before the connection closes.
    fn has_buffered_frames(&self) -> bool {
        matches!(frame_from_buf(&self.rbuf), Ok(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, Request};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn push_request(conn: &mut Connection, req: &Request) {
        conn.rbuf.extend_from_slice(&frame_bytes(&encode(req)));
    }

    #[test]
    fn responses_flush_in_request_order_despite_out_of_order_fills() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(1, server, true).unwrap();
        push_request(&mut conn, &Request::Status { job_id: 10 });
        push_request(&mut conn, &Request::Status { job_id: 11 });
        push_request(&mut conn, &Request::ListJobs);

        let mut seen = Vec::new();
        let parsed = conn.parse_frames(16, &mut |_, seq, req| {
            seen.push((seq, req.kind()));
            None
        });
        assert_eq!(parsed, 3);
        assert_eq!(seen, vec![(0, "status"), (1, "status"), (2, "list_jobs")]);
        assert!(conn.awaiting_service());

        // Answer the middle and last requests first: nothing may flush.
        conn.fill(1, Response::Submitted { job_id: 11 });
        conn.fill(2, Response::Jobs(vec![]));
        conn.flush();
        assert_eq!(conn.outbox_bytes(), 0, "head-of-line slot gates the flush");

        // Answering the head releases all three, in request order.
        conn.fill(0, Response::Submitted { job_id: 10 });
        conn.flush();
        assert!(!conn.awaiting_service());
        client.set_nonblocking(false).unwrap();
        let order: Vec<Response> = (0..3)
            .map(|_| {
                let payload = read_frame(&mut client).unwrap();
                decode(&payload).unwrap()
            })
            .collect();
        assert_eq!(
            order,
            vec![
                Response::Submitted { job_id: 10 },
                Response::Submitted { job_id: 11 },
                Response::Jobs(vec![]),
            ]
        );
    }

    #[test]
    fn a_response_over_the_frame_cap_goes_out_as_a_typed_error() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(3, server, true).unwrap();
        push_request(&mut conn, &Request::Metrics);
        conn.parse_frames(16, &mut |_, _, _| None);
        // The JSON envelope around this text puts the payload over the cap.
        let text = "x".repeat(crate::protocol::MAX_FRAME_LEN as usize);
        conn.fill(0, Response::Metrics { text });
        conn.flush();
        client.set_nonblocking(false).unwrap();
        match decode(&read_frame(&mut client).unwrap()).unwrap() {
            Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::TooLarge),
            other => panic!("expected a TooLarge error frame, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_answers_bad_request_without_poisoning_the_pipeline() {
        let (_client, server) = pair();
        let mut conn = Connection::new(2, server, true).unwrap();
        push_request(&mut conn, &Request::ListJobs);
        conn.rbuf
            .extend_from_slice(&frame_bytes("{\"type\": \"fly\"}"));
        push_request(&mut conn, &Request::ListJobs);

        let mut kinds = Vec::new();
        conn.parse_frames(16, &mut |_, _, req| {
            kinds.push(req.kind());
            Some(Response::Jobs(vec![]))
        });
        // Both well-formed requests reached the sink; the garbage one got an
        // edge BadRequest in between and the connection is still open.
        assert_eq!(kinds, vec!["list_jobs", "list_jobs"]);
        assert!(!conn.should_close());
        assert_eq!(conn.pending.len(), 3);
        assert!(conn.pending.iter().all(|s| s.response.is_some()));
    }

    #[test]
    fn frame_level_poison_closes_after_one_typed_answer() {
        let (_client, server) = pair();
        let mut conn = Connection::new(3, server, true).unwrap();
        // A zero length prefix can never resynchronize.
        conn.rbuf.extend_from_slice(&0u32.to_be_bytes());
        conn.parse_frames(16, &mut |_, _, _| None);
        assert!(conn.close_after_flush);
        conn.flush();
        assert!(conn.should_close());
    }

    #[test]
    fn pipeline_depth_gates_parsing_until_slots_free() {
        let (_client, server) = pair();
        let mut conn = Connection::new(4, server, true).unwrap();
        for _ in 0..5 {
            push_request(&mut conn, &Request::ListJobs);
        }
        assert_eq!(conn.parse_frames(2, &mut |_, _, _| None), 2);
        assert_eq!(conn.desired_interest(2) & crate::poll::READABLE, 0);
        conn.fill(0, Response::Jobs(vec![]));
        conn.fill(1, Response::Jobs(vec![]));
        conn.flush();
        // Freed slots admit the buffered remainder.
        assert_eq!(conn.parse_frames(2, &mut |_, _, _| None), 2);
        assert_eq!(conn.parse_frames(2, &mut |_, _, _| None), 0);
    }

    #[test]
    fn watermark_hysteresis_pauses_and_resumes_reading() {
        let (_client, server) = pair();
        let mut conn = Connection::new(5, server, true).unwrap();
        // Force an over-high-water outbox without touching the socket.
        conn.wbuf = vec![0u8; HIGH_WATER + 1];
        conn.wpos = 0;
        assert_eq!(conn.desired_interest(16) & crate::poll::READABLE, 0);
        // Draining to just under high water is not enough — hysteresis.
        conn.wpos = 2;
        assert_eq!(conn.desired_interest(16) & crate::poll::READABLE, 0);
        // Below low water, reading resumes.
        conn.wpos = conn.wbuf.len() - LOW_WATER;
        assert_ne!(conn.desired_interest(16) & crate::poll::READABLE, 0);
    }

    #[test]
    fn reject_connections_close_once_their_frame_drains() {
        let (mut client, server) = pair();
        let refusal = Response::Error(ErrorFrame {
            kind: ErrorKind::Saturated,
            message: "cap".to_string(),
            retry_after_secs: Some(0.5),
        });
        let mut conn = Connection::reject(6, server, refusal.clone()).unwrap();
        assert!(!conn.counted);
        assert!(!conn.should_close(), "the refusal still has to flush");
        conn.flush();
        assert!(conn.should_close());
        drop(conn);
        client.set_nonblocking(false).unwrap();
        let payload = read_frame(&mut client).unwrap();
        assert_eq!(decode::<Response>(&payload).unwrap(), refusal);
    }
}
