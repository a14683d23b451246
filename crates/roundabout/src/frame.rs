//! The loopback-TCP wire format both socket drivers speak.
//!
//! Everything a byte-oriented ring transport shares, independent of how
//! the sockets are driven (blocking threads in [`crate::tcp_backend`],
//! one readiness loop in [`crate::reactor_backend`]):
//!
//! * **Framing** — every message is `[kind: u8][len: u32 LE][body]`
//!   ([`encode_envelope`], [`encode_ack`], [`encode_hello`]), decoded
//!   incrementally by [`FrameDecoder`] so partial reads and short writes
//!   at arbitrary byte boundaries reassemble cleanly. Malformed bytes
//!   become typed [`FrameError`]s, never panics.
//! * **Payload codecs** — [`WirePayload`] and its implementations for
//!   raw bytes, relations and prepared fragments.
//! * **Buffer recycling** — `FrameBufPool` hands out encode buffers and
//!   [`write_frames_vectored`] submits a batch of them in one `writev`.
//! * **Ring setup** — each host binds a listener on `127.0.0.1:0` (the
//!   kernel assigns the port, so concurrent test runs never race), and
//!   every connection is confirmed with a seeded hello handshake
//!   (`build_mesh_pairs`) before any envelope moves.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use simnet::fault::FaultPlan;
use simnet::topology::HostId;

use crate::envelope::{Envelope, FragmentId, PayloadBytes};
use crate::error::{FrameError, RingError};

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Frame kind: connection handshake (`nonce: u64, host: u32`).
pub const KIND_HELLO: u8 = 1;
/// Frame kind: a circulating envelope (48-byte header + payload).
pub const KIND_ENVELOPE: u8 = 2;
/// Frame kind: a transfer acknowledgement (`tid: u64`).
pub const KIND_ACK: u8 = 3;

/// Largest body a frame may claim; longer prefixes are corruption (or a
/// stranger speaking another protocol) and decode to
/// [`FrameError::Oversized`].
pub const MAX_FRAME: u32 = 1 << 28;

/// Bytes of the frame prefix: kind byte plus little-endian length.
const FRAME_HEADER: usize = 5;
/// Fixed bytes of an envelope body before the payload: tid, fragment id,
/// origin, hops remaining, wire sequence, checksum, visited mask, query id.
const ENVELOPE_HEADER: usize = 52;
/// Bytes of a hello body: nonce plus host id.
const HELLO_BODY: usize = 12;
/// Bytes of an ack body: the transfer id.
const ACK_BODY: usize = 8;

/// A payload type that can cross a byte-oriented transport.
///
/// The simulated and threaded backends move payloads by value; TCP moves
/// bytes. Implementations must round-trip exactly — the envelope checksum
/// taken at origination is verified on the decoded payload, so a lossy
/// codec would masquerade as wire corruption.
pub trait WirePayload: PayloadBytes + Sized {
    /// Exact number of bytes [`WirePayload::encode_payload`] will append —
    /// frame buffers are sized from this before encoding, so an
    /// underestimate costs a mid-encode reallocation and copy of
    /// everything written so far.
    fn payload_wire_len(&self) -> usize;
    /// Appends this payload's wire bytes to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);
    /// Reconstructs a payload from its wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadPayload`] when the bytes are not a valid
    /// encoding (truncated tables, impossible partition counts, …).
    fn decode_payload(bytes: &[u8]) -> Result<Self, FrameError>;
}

impl WirePayload for Vec<u8> {
    fn payload_wire_len(&self) -> usize {
        self.len()
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode_payload(bytes: &[u8]) -> Result<Self, FrameError> {
        Ok(bytes.to_vec())
    }
}

impl WirePayload for relation::Relation {
    fn payload_wire_len(&self) -> usize {
        relation::wire::encoded_len(self.len())
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        relation::wire::encode_into(self, out);
    }

    fn decode_payload(bytes: &[u8]) -> Result<Self, FrameError> {
        relation::wire::decode(bytes).map_err(|_| FrameError::BadPayload("relation wire format"))
    }
}

/// Prepared-fragment wire tags (one byte ahead of the relation bytes).
const TAG_PLAIN: u8 = 0;
const TAG_SORTED: u8 = 1;
const TAG_HASH: u8 = 2;

impl WirePayload for mem_joins::PreparedFragment {
    fn payload_wire_len(&self) -> usize {
        match self {
            mem_joins::PreparedFragment::Plain(rel) => 1 + relation::wire::encoded_len(rel.len()),
            mem_joins::PreparedFragment::Sorted(run) => {
                1 + relation::wire::encoded_len(run.as_relation().len())
            }
            mem_joins::PreparedFragment::HashPartitioned(parts) => {
                1 + 4
                    + 4
                    + parts
                        .partitions()
                        .iter()
                        .map(|p| 4 + relation::wire::encoded_len(p.len()))
                        .sum::<usize>()
            }
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            mem_joins::PreparedFragment::Plain(rel) => {
                out.push(TAG_PLAIN);
                relation::wire::encode_into(rel, out);
            }
            mem_joins::PreparedFragment::Sorted(run) => {
                out.push(TAG_SORTED);
                relation::wire::encode_into(run.as_relation(), out);
            }
            mem_joins::PreparedFragment::HashPartitioned(parts) => {
                out.push(TAG_HASH);
                out.extend_from_slice(&parts.bits().to_le_bytes());
                out.extend_from_slice(&(parts.partitions().len() as u32).to_le_bytes());
                for p in parts.partitions() {
                    // The per-partition length prefix is a pure function
                    // of the tuple count, so it can be written *before*
                    // the bytes — no staging copy of the encoding.
                    let enc_len = relation::wire::encoded_len(p.len());
                    out.extend_from_slice(&(enc_len as u32).to_le_bytes());
                    relation::wire::encode_into(p, out);
                }
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Result<Self, FrameError> {
        let Some(&tag) = bytes.first() else {
            return Err(FrameError::BadPayload("empty prepared-fragment payload"));
        };
        let rest = bytes.get(1..).unwrap_or_default();
        match tag {
            TAG_PLAIN => {
                let rel = relation::Relation::decode_payload(rest)?;
                Ok(mem_joins::PreparedFragment::Plain(rel))
            }
            TAG_SORTED => {
                let rel = relation::Relation::decode_payload(rest)?;
                // Validate before constructing: `from_sorted` asserts.
                if !rel.is_sorted_by_key() {
                    return Err(FrameError::BadPayload("sorted-run payload is not sorted"));
                }
                Ok(mem_joins::PreparedFragment::Sorted(
                    mem_joins::SortedRun::from_sorted(rel),
                ))
            }
            TAG_HASH => {
                let bits = read_u32(rest, 0)
                    .ok_or(FrameError::BadPayload("truncated radix partition header"))?;
                let count = read_u32(rest, 4)
                    .ok_or(FrameError::BadPayload("truncated radix partition header"))?;
                if bits > 24 {
                    return Err(FrameError::BadPayload("radix bits out of range"));
                }
                if count as u64 != 1u64 << bits {
                    return Err(FrameError::BadPayload(
                        "partition count does not match radix bits",
                    ));
                }
                let mut at = 8usize;
                let mut partitions = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = read_u32(rest, at)
                        .ok_or(FrameError::BadPayload("truncated partition table"))?
                        as usize;
                    at += 4;
                    let seg = rest
                        .get(at..at.saturating_add(len))
                        .ok_or(FrameError::BadPayload("truncated partition body"))?;
                    partitions.push(relation::Relation::decode_payload(seg)?);
                    at += len;
                }
                Ok(mem_joins::PreparedFragment::HashPartitioned(
                    mem_joins::RadixPartitioned::from_parts(bits, partitions),
                ))
            }
            _ => Err(FrameError::BadPayload("unknown prepared-fragment tag")),
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<P> {
    /// Connection handshake, exchanged once per direction at setup.
    Hello {
        /// Seeded pair nonce; a mismatch means a stranger connected.
        nonce: u64,
        /// Host id of the sender.
        host: u32,
    },
    /// A circulating envelope.
    Envelope {
        /// Transfer id from the matching
        /// [`Output::Send`](crate::protocol::Output::Send) (0 on the
        /// classic path).
        tid: u64,
        /// The envelope, checksum carried verbatim (corruption survives
        /// the codec so the receiver's verification can catch it).
        env: Envelope<P>,
    },
    /// A transfer acknowledgement travelling back to its sender.
    Ack {
        /// The acknowledged transfer.
        tid: u64,
    },
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let s = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let s = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(s.try_into().ok()?))
}

/// Opens a frame in `out`: the kind byte plus a zeroed length prefix,
/// patched by [`close_frame`] once the body is in place. Writing the body
/// directly behind the header keeps every frame a single buffer — no
/// body-then-copy staging.
fn open_frame(out: &mut Vec<u8>, kind: u8, body_hint: usize) {
    out.clear();
    out.reserve(FRAME_HEADER + body_hint);
    out.push(kind);
    out.extend_from_slice(&[0u8; 4]);
}

/// Patches the length prefix of a frame started by [`open_frame`].
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when the body exceeds [`MAX_FRAME`]
/// — such a frame could never be decoded on the other side.
fn close_frame(out: &mut [u8]) -> Result<(), FrameError> {
    let body_len = out.len().saturating_sub(FRAME_HEADER);
    if body_len > MAX_FRAME as usize {
        return Err(FrameError::Oversized {
            len: u32::MAX,
            max: MAX_FRAME,
        });
    }
    if let Some(prefix) = out.get_mut(1..FRAME_HEADER) {
        prefix.copy_from_slice(&(body_len as u32).to_le_bytes());
    }
    Ok(())
}

/// Encodes a handshake frame.
pub fn encode_hello(nonce: u64, host: u32) -> Vec<u8> {
    let mut out = Vec::new();
    open_frame(&mut out, KIND_HELLO, HELLO_BODY);
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&host.to_le_bytes());
    let _ = close_frame(&mut out); // 12-byte body: cannot be oversized
    out
}

/// Encodes an acknowledgement frame.
pub fn encode_ack(tid: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_ack_into(tid, &mut out);
    out
}

/// Encodes an acknowledgement frame into a reusable buffer (cleared
/// first).
pub fn encode_ack_into(tid: u64, out: &mut Vec<u8>) {
    open_frame(out, KIND_ACK, ACK_BODY);
    out.extend_from_slice(&tid.to_le_bytes());
    let _ = close_frame(out); // 8-byte body: cannot be oversized
}

/// Encodes an envelope frame.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when the payload would exceed
/// [`MAX_FRAME`] — such a frame could never be decoded on the other side.
pub fn encode_envelope<P: WirePayload>(tid: u64, env: &Envelope<P>) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::new();
    encode_envelope_into(tid, env, &mut out)?;
    Ok(out)
}

/// Encodes an envelope frame into a reusable buffer (cleared first). The
/// buffer is right-sized up front from [`WirePayload::payload_wire_len`],
/// so a pooled buffer that has seen a similar payload before makes the
/// whole encode allocation-free.
///
/// # Errors
///
/// As [`encode_envelope`].
pub fn encode_envelope_into<P: WirePayload>(
    tid: u64,
    env: &Envelope<P>,
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    open_frame(
        out,
        KIND_ENVELOPE,
        ENVELOPE_HEADER + env.payload.payload_wire_len(),
    );
    out.extend_from_slice(&tid.to_le_bytes());
    out.extend_from_slice(&(env.id.0 as u64).to_le_bytes());
    out.extend_from_slice(&(env.origin.0 as u32).to_le_bytes());
    out.extend_from_slice(&(env.hops_remaining as u32).to_le_bytes());
    out.extend_from_slice(&env.seq.to_le_bytes());
    out.extend_from_slice(&env.checksum.to_le_bytes());
    out.extend_from_slice(&env.visited.to_le_bytes());
    out.extend_from_slice(&env.query.to_le_bytes());
    env.payload.encode_payload(out);
    close_frame(out)
}

/// Ceiling on the capacity a buffer may keep when it returns to the
/// [`FrameBufPool`]: one outsized envelope must not pin its high-water
/// allocation for the rest of the run.
const MAX_POOLED_CAPACITY: usize = 4 * 1024 * 1024;
/// Ceiling on pooled buffers; beyond it, returning buffers are dropped.
const MAX_POOLED_BUFS: usize = 64;

/// A shared pool of encode buffers. The coordinator draws a buffer per
/// outgoing frame, encodes into it, and the writer thread returns it once
/// `write_all` handed the bytes to the kernel — so the steady state
/// allocates nothing per frame instead of a fresh `Vec` per envelope.
#[derive(Default)]
pub(crate) struct FrameBufPool {
    bufs: std::sync::Mutex<Vec<Vec<u8>>>,
}

impl FrameBufPool {
    /// A recycled buffer, or a fresh empty one when the pool is dry.
    pub(crate) fn take(&self) -> Vec<u8> {
        // A poisoned lock only means some thread panicked mid-push; the
        // pool's contents are plain byte buffers, always safe to reuse.
        let mut bufs = self
            .bufs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool (oversized or surplus ones are freed).
    pub(crate) fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buf.clear();
        let mut bufs = self
            .bufs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if bufs.len() < MAX_POOLED_BUFS {
            bufs.push(buf);
        }
    }
}

/// Incremental frame decoder: feed it byte chunks as they come off a
/// socket, pull complete frames out. Partial frames wait for more bytes;
/// malformed ones surface as typed [`FrameError`]s. The decoder never
/// panics on wire input.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadKind`] for an unknown kind byte,
    /// [`FrameError::Oversized`] for a length prefix beyond [`MAX_FRAME`],
    /// [`FrameError::Truncated`] for a body shorter than its fixed header,
    /// and [`FrameError::BadPayload`] for undecodable payload bytes.
    pub fn next_frame<P: WirePayload>(&mut self) -> Result<Option<Frame<P>>, FrameError> {
        let buf = self.buf.get(self.start..).unwrap_or_default();
        let Some(&kind) = buf.first() else {
            return Ok(None);
        };
        if !matches!(kind, KIND_HELLO | KIND_ENVELOPE | KIND_ACK) {
            return Err(FrameError::BadKind(kind));
        }
        let Some(len) = read_u32(buf, 1) else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(FrameError::Oversized {
                len,
                max: MAX_FRAME,
            });
        }
        let Some(body) = buf.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
            return Ok(None);
        };
        let frame = decode_body(kind, body)?;
        self.start += FRAME_HEADER + len as usize;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

fn decode_body<P: WirePayload>(kind: u8, body: &[u8]) -> Result<Frame<P>, FrameError> {
    let needed = match kind {
        KIND_HELLO => HELLO_BODY,
        KIND_ACK => ACK_BODY,
        _ => ENVELOPE_HEADER,
    };
    if body.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            got: body.len(),
        });
    }
    match kind {
        KIND_HELLO => Ok(Frame::Hello {
            nonce: read_u64(body, 0).unwrap_or_default(),
            host: read_u32(body, 8).unwrap_or_default(),
        }),
        KIND_ACK => Ok(Frame::Ack {
            tid: read_u64(body, 0).unwrap_or_default(),
        }),
        KIND_ENVELOPE => {
            let payload = P::decode_payload(body.get(ENVELOPE_HEADER..).unwrap_or_default())?;
            Ok(Frame::Envelope {
                tid: read_u64(body, 0).unwrap_or_default(),
                env: Envelope {
                    id: FragmentId(read_u64(body, 8).unwrap_or_default() as usize),
                    origin: HostId(read_u32(body, 16).unwrap_or_default() as usize),
                    hops_remaining: read_u32(body, 20).unwrap_or_default() as usize,
                    seq: read_u64(body, 24).unwrap_or_default(),
                    checksum: read_u64(body, 32).unwrap_or_default(),
                    visited: read_u64(body, 40).unwrap_or_default(),
                    query: read_u32(body, 48).unwrap_or_default(),
                    payload,
                },
            })
        }
        other => Err(FrameError::BadKind(other)),
    }
}

// ---------------------------------------------------------------------------
// Ring setup: port-0 listeners + seeded hello handshake
// ---------------------------------------------------------------------------

/// splitmix64-style mixer for the handshake nonces.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The seed the mesh handshake nonces derive from: the run's dice when it
/// has any, a fixed constant on the classic plan-free path.
pub(crate) fn mesh_seed(plan: Option<&FaultPlan>) -> u64 {
    plan.map_or(0x0dd0_ba11, FaultPlan::seed)
}

/// The hello nonce the `from` side of pair (`from`, `to`) must present.
pub(crate) fn pair_nonce(seed: u64, from: usize, to: usize) -> u64 {
    mix(seed ^ ((from as u64) << 32) ^ (to as u64) ^ 0x5e17_ab1e_c0a5_7e11)
}

/// The full in-process mesh: `endpoints[h][p]` is host `h`'s end of its
/// connection with `p` (None on the diagonal). Healing can route any
/// surviving pair, so every pair gets a socket up front.
pub(crate) struct Mesh {
    pub(crate) endpoints: Vec<Vec<Option<TcpStream>>>,
}

pub(crate) fn socket_err(what: &'static str) -> impl Fn(std::io::Error) -> RingError {
    move |_| RingError::Socket(what)
}

/// Builds the loopback mesh restricted to the pairs `want(a, b)` accepts
/// (`a < b`); the blocking driver wants every pair, the reactor driver
/// opens only ring-neighbor sockets on plan-free wide rings, where a full
/// 256-host mesh would exhaust the process fd budget for connections
/// healing can never use. Every host binds `127.0.0.1:0` — the kernel
/// assigns a fresh port, so concurrent runs (CI, proptests) never collide
/// — and each connection is confirmed with a two-way seeded hello before
/// it joins the ring.
pub(crate) fn build_mesh_pairs(
    hosts: usize,
    seed: u64,
    handshake_timeout: Duration,
    mut want: impl FnMut(usize, usize) -> bool,
) -> Result<Mesh, RingError> {
    let mut endpoints: Vec<Vec<Option<TcpStream>>> = (0..hosts)
        .map(|_| (0..hosts).map(|_| None).collect())
        .collect();
    for b in 1..hosts {
        let wanted: Vec<usize> = (0..b).filter(|&a| want(a, b)).collect();
        if wanted.is_empty() {
            continue;
        }
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(socket_err("bind loopback listener"))?;
        let addr = listener
            .local_addr()
            .map_err(socket_err("resolve listener address"))?;
        for a in wanted {
            let connect = TcpStream::connect(addr).map_err(socket_err("connect to ring peer"))?;
            let (accept, _) = listener.accept().map_err(socket_err("accept ring peer"))?;
            handshake(a, b, seed, &connect, &accept, handshake_timeout)?;
            if let Some(row) = endpoints.get_mut(a) {
                if let Some(slot) = row.get_mut(b) {
                    *slot = Some(connect);
                }
            }
            if let Some(row) = endpoints.get_mut(b) {
                if let Some(slot) = row.get_mut(a) {
                    *slot = Some(accept);
                }
            }
        }
    }
    Ok(Mesh { endpoints })
}

/// Confirms one freshly accepted connection in both directions.
fn handshake(
    a: usize,
    b: usize,
    seed: u64,
    connect: &TcpStream,
    accept: &TcpStream,
    timeout: Duration,
) -> Result<(), RingError> {
    for s in [connect, accept] {
        s.set_read_timeout(Some(timeout))
            .map_err(socket_err("set handshake timeout"))?;
    }
    send_hello(connect, pair_nonce(seed, a, b), a)?;
    expect_hello(accept, pair_nonce(seed, a, b), a)?;
    send_hello(accept, pair_nonce(seed, b, a), b)?;
    expect_hello(connect, pair_nonce(seed, b, a), b)?;
    for s in [connect, accept] {
        s.set_read_timeout(None)
            .map_err(socket_err("clear handshake timeout"))?;
        // The ring moves small control frames (acks) between large
        // envelopes; Nagle batching would serialize the stop-and-wait.
        s.set_nodelay(true).map_err(socket_err("set TCP_NODELAY"))?;
    }
    Ok(())
}

fn send_hello(stream: &TcpStream, nonce: u64, host: usize) -> Result<(), RingError> {
    let mut writer = stream;
    writer
        .write_all(&encode_hello(nonce, host as u32))
        .map_err(socket_err("send hello"))
}

fn expect_hello(stream: &TcpStream, nonce: u64, host: usize) -> Result<(), RingError> {
    let mut reader = stream;
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 256];
    loop {
        match decoder.next_frame::<Vec<u8>>() {
            Ok(Some(Frame::Hello { nonce: n, host: h })) => {
                return if n == nonce && h as usize == host {
                    Ok(())
                } else {
                    Err(RingError::Socket("handshake: hello nonce or host mismatch"))
                };
            }
            Ok(Some(_)) => return Err(RingError::Socket("handshake: unexpected frame")),
            Ok(None) => {}
            Err(e) => return Err(e.into()),
        }
        let n = reader
            .read(&mut chunk)
            .map_err(socket_err("handshake read"))?;
        if n == 0 {
            return Err(RingError::Socket("handshake: peer closed during hello"));
        }
        decoder.feed(chunk.get(..n).unwrap_or_default());
    }
}

/// Writes every frame in `frames`, submitting them as one vectored
/// `writev` whenever the kernel cooperates. Each frame is already a
/// complete `[kind][len][body]` encoding from the pooled buffers, so the
/// prefix and payload of many frames leave in a single syscall instead of
/// one `write_all` per frame. Short writes resume from the exact byte
/// offset; `Interrupted` retries; a zero-length write reports the peer
/// gone as `WriteZero`.
pub fn write_frames_vectored<W: Write>(stream: &mut W, frames: &[Vec<u8>]) -> std::io::Result<()> {
    let total: usize = frames.iter().map(Vec::len).sum();
    let mut written = 0usize;
    while written < total {
        let mut slices: Vec<std::io::IoSlice<'_>> = Vec::with_capacity(frames.len());
        let mut skip = written;
        for f in frames {
            if skip >= f.len() {
                skip -= f.len();
                continue;
            }
            slices.push(std::io::IoSlice::new(f.get(skip..).unwrap_or_default()));
            skip = 0;
        }
        match stream.write_vectored(&slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written = written.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<P: WirePayload + PartialEq + std::fmt::Debug>(frame: Frame<P>, step: usize) {
        let bytes = match &frame {
            Frame::Hello { nonce, host } => encode_hello(*nonce, *host),
            Frame::Envelope { tid, env } => encode_envelope(*tid, env).unwrap(),
            Frame::Ack { tid } => encode_ack(*tid),
        };
        let mut decoder = FrameDecoder::new();
        let mut decoded = None;
        for chunk in bytes.chunks(step) {
            assert!(decoded.is_none(), "frame decoded before all bytes arrived");
            decoder.feed(chunk);
            if let Some(f) = decoder.next_frame::<P>().unwrap() {
                decoded = Some(f);
            }
        }
        assert_eq!(decoded.as_ref(), Some(&frame));
        assert!(decoder.next_frame::<P>().unwrap().is_none());
    }

    #[test]
    fn frame_codec_roundtrips_under_any_split() {
        let env = Envelope::new(FragmentId(7), HostId(2), 5, vec![9u8; 100]);
        for step in [1, 2, 3, 7, 64, 1024] {
            roundtrip::<Vec<u8>>(
                Frame::Hello {
                    nonce: 0xdead_beef,
                    host: 3,
                },
                step,
            );
            roundtrip::<Vec<u8>>(Frame::Ack { tid: u64::MAX }, step);
            roundtrip(
                Frame::Envelope {
                    tid: 42,
                    env: env.clone(),
                },
                step,
            );
        }
    }

    #[test]
    fn into_encoders_match_fresh_encoders_and_reuse_capacity() {
        let rel = relation::GenSpec::uniform(500, 3).generate();
        let env = Envelope::new(FragmentId(9), HostId(1), 4, rel);
        let mut buf = Vec::new();
        encode_envelope_into(11, &env, &mut buf).unwrap();
        assert_eq!(buf, encode_envelope(11, &env).unwrap());
        assert_eq!(
            buf.len(),
            FRAME_HEADER + ENVELOPE_HEADER + env.payload.payload_wire_len(),
            "payload_wire_len must be exact so pooled buffers never realloc"
        );
        let cap = buf.capacity();
        // A second encode into the same (dirty) buffer must produce the
        // same bytes without growing it.
        encode_envelope_into(11, &env, &mut buf).unwrap();
        assert_eq!(buf, encode_envelope(11, &env).unwrap());
        assert_eq!(buf.capacity(), cap);

        let mut ack = vec![0xAA; 3];
        encode_ack_into(7, &mut ack);
        assert_eq!(ack, encode_ack(7));
    }

    #[test]
    fn payload_wire_len_is_exact_for_every_variant() {
        use mem_joins::Algorithm;
        let rel = relation::GenSpec::uniform(300, 5).generate();
        for (alg, bits) in [
            (Algorithm::NestedLoops, 0),
            (Algorithm::SortMerge, 0),
            (Algorithm::partitioned_hash(), 3),
        ] {
            let frag = alg.prepare_fragment(&rel, bits, 1);
            let mut bytes = Vec::new();
            frag.encode_payload(&mut bytes);
            assert_eq!(bytes.len(), frag.payload_wire_len());
        }
        let v = vec![1u8, 2, 3];
        assert_eq!(v.payload_wire_len(), 3);
        assert_eq!(rel.payload_wire_len(), relation::wire::encoded_len(300));
    }

    #[test]
    fn frame_pool_recycles_and_caps() {
        let pool = FrameBufPool::default();
        let mut a = pool.take();
        assert!(a.is_empty());
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty(), "returned buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        // Oversized buffers are dropped, not pooled.
        pool.put(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn corrupted_checksums_survive_the_codec() {
        let mut env = Envelope::new(FragmentId(1), HostId(0), 3, vec![1u8; 16]);
        env.checksum = !env.checksum;
        let bytes = encode_envelope(5, &env).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let Some(Frame::Envelope { env: back, .. }) = decoder.next_frame::<Vec<u8>>().unwrap()
        else {
            panic!("expected an envelope frame");
        };
        assert!(!back.checksum_ok(), "the flipped checksum must survive");
    }

    #[test]
    fn decoder_rejects_malformed_prefixes() {
        let mut d = FrameDecoder::new();
        d.feed(&[0x7f, 0, 0, 0, 0]);
        assert_eq!(d.next_frame::<Vec<u8>>(), Err(FrameError::BadKind(0x7f)));

        let mut d = FrameDecoder::new();
        let mut bytes = vec![KIND_ACK];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        d.feed(&bytes);
        assert_eq!(
            d.next_frame::<Vec<u8>>(),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: MAX_FRAME
            })
        );

        let mut d = FrameDecoder::new();
        let mut bytes = vec![KIND_ENVELOPE];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 7]);
        d.feed(&bytes);
        assert_eq!(
            d.next_frame::<Vec<u8>>(),
            Err(FrameError::Truncated {
                needed: ENVELOPE_HEADER,
                got: 7
            })
        );
    }

    #[test]
    fn relation_payloads_roundtrip() {
        let rel = relation::GenSpec::uniform(200, 17).generate();
        let mut bytes = Vec::new();
        rel.encode_payload(&mut bytes);
        let back = relation::Relation::decode_payload(&bytes).unwrap();
        assert_eq!(back, rel);
        assert!(relation::Relation::decode_payload(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn prepared_fragment_payloads_roundtrip() {
        use mem_joins::{Algorithm, PreparedFragment};
        let rel = relation::GenSpec::uniform(300, 5).generate();
        for (alg, bits) in [
            (Algorithm::NestedLoops, 0),
            (Algorithm::SortMerge, 0),
            (Algorithm::partitioned_hash(), 3),
        ] {
            let frag = alg.prepare_fragment(&rel, bits, 1);
            let mut bytes = Vec::new();
            frag.encode_payload(&mut bytes);
            let back = PreparedFragment::decode_payload(&bytes).unwrap();
            assert_eq!(back.len(), frag.len());
            assert_eq!(back.payload_checksum(), frag.payload_checksum());
            match (&frag, &back) {
                (PreparedFragment::Plain(a), PreparedFragment::Plain(b)) => assert_eq!(a, b),
                (PreparedFragment::Sorted(a), PreparedFragment::Sorted(b)) => {
                    assert_eq!(a.as_relation(), b.as_relation());
                }
                (PreparedFragment::HashPartitioned(a), PreparedFragment::HashPartitioned(b)) => {
                    assert_eq!(a, b);
                }
                _ => panic!("variant changed across the wire"),
            }
        }
    }

    #[test]
    fn prepared_fragment_decode_validates_partition_count() {
        let mut bytes = vec![TAG_HASH];
        bytes.extend_from_slice(&2u32.to_le_bytes()); // bits = 2 → needs 4
        bytes.extend_from_slice(&3u32.to_le_bytes()); // claims 3
        let err = mem_joins::PreparedFragment::decode_payload(&bytes).unwrap_err();
        assert!(matches!(err, FrameError::BadPayload(_)));
    }
}
