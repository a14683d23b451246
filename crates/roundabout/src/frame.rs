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
//!   raw bytes, relations and prepared fragments, each with a view that
//!   reads its bytes in place.
//! * **The frame path** — a payload that is its wire bytes already (a
//!   `mem_joins::PreparedFragment`, [`WirePayload::into_wire`]) is never
//!   encoded: its origin sends the bytes from where the fragment was
//!   prepared into them. Any other payload is encoded once per revolution,
//!   at its origin, on its first attempt. Every send — the origin's, a
//!   retransmission, or the forward of a copy that arrived from the
//!   predecessor — is a fresh 57-byte prefix + envelope header (tid,
//!   hops, sequence, checksum and visited mask change per hop) followed by
//!   the *same* payload bytes, as two slices of one vectored write
//!   (`OutFrame`). The decoder reads each envelope header into an array
//!   and its payload alone straight into a buffer from the engine's shared
//!   `FrameBufPool`, and checks it once ([`WirePayload::view`]); the
//!   received payload *is* that buffer (`crate::inflight::InFlight`) until
//!   its last holder drops, and every visit joins its columns where they
//!   lie ([`WirePayload::View`]) — it is never decoded. A pooled buffer
//!   holds exactly a payload's bytes, whether a fragment was prepared in
//!   it or an arrival read into it, so either fits the next arrival of
//!   that size. A corrupt fate flips the checksum in the header, so
//!   shared bytes are never written to.
//! * **Ring setup** — each host binds a listener on `127.0.0.1:0` (the
//!   kernel assigns the port, so concurrent test runs never race), and
//!   every connection is confirmed with a seeded hello handshake
//!   (`build_mesh_pairs`) before any envelope moves.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use simnet::fault::FaultPlan;
use simnet::topology::HostId;

use crate::envelope::{Envelope, FragmentId, PayloadBytes};
use crate::error::{FrameError, RingError};
use crate::inflight::{InFlight, WireCell};

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Frame kind: connection handshake (`nonce: u64, host: u32`).
pub const KIND_HELLO: u8 = 1;
/// Frame kind: a circulating envelope (52-byte header + payload).
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
pub(crate) const ENVELOPE_HEADER: usize = 52;
/// Bytes of a hello body: nonce plus host id.
const HELLO_BODY: usize = 12;
/// Bytes of an ack body: the transfer id.
const ACK_BODY: usize = 8;
/// Bytes of an envelope frame ahead of its payload: what a hop writes
/// fresh (prefix plus envelope header) in front of the shared payload
/// bytes.
const ENVELOPE_HEAD: usize = FRAME_HEADER + ENVELOPE_HEADER;

/// Most frames a blocking writer batches into one vectored submission.
/// Bounds what one writer holds out of circulation while still letting a
/// burst of small acks and envelopes leave in a single syscall.
pub(crate) const MAX_WRITE_BATCH: usize = 16;
/// Slices one vectored submission carries: a frame is header + payload.
const MAX_WRITE_SLICES: usize = 2 * MAX_WRITE_BATCH;

/// A payload type that can cross a byte-oriented transport.
///
/// The simulated and threaded backends move payloads by value; TCP moves
/// bytes, and a received payload is never decoded: the decoder checks its
/// bytes once ([`WirePayload::view`]) and every visit reads them in place
/// through a [`WirePayload::View`]. The origin's visit borrows its owned
/// payload as the same view type ([`WirePayload::as_view`]), so a visit
/// reads one type on every engine.
///
/// Implementations must round-trip exactly — the envelope checksum taken
/// at origination is verified on the received payload, so a lossy codec
/// would masquerade as wire corruption — and must be `Sync`: an origin's
/// payload is read in place by the coordinator (to encode it for its
/// first send) and by the join worker (to visit it) at once.
pub trait WirePayload: PayloadBytes + Sized + Sync {
    /// The payload read in place: borrowed from an owned payload, or laid
    /// over the bytes it arrived in. It answers [`PayloadBytes`] as the
    /// owned payload does.
    type View<'a>: PayloadBytes + Copy
    where
        Self: 'a;

    /// Exact number of bytes [`WirePayload::encode_payload`] will append —
    /// frame buffers are sized from this before encoding, so an
    /// underestimate costs a mid-encode reallocation and copy of
    /// everything written so far.
    fn payload_wire_len(&self) -> usize;

    /// Appends this payload's wire bytes to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Views `bytes` in place after every check decoding makes, allocating
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadPayload`] when the bytes are not a valid
    /// encoding (truncated tables, impossible partition counts, a column
    /// whose checksum does not match, …).
    fn view(bytes: &[u8]) -> Result<Self::View<'_>, FrameError>;

    /// [`WirePayload::view`] of bytes it already accepted and nobody wrote
    /// to since, skipping the checks that read every byte: a received
    /// payload is checked once, on receipt, and viewed at every visit. By
    /// default it checks again.
    ///
    /// # Errors
    ///
    /// As [`WirePayload::view`].
    fn view_accepted(bytes: &[u8]) -> Result<Self::View<'_>, FrameError> {
        Self::view(bytes)
    }

    /// This payload as a view.
    fn as_view(&self) -> Self::View<'_>;

    /// An owned payload holding what `view` reads.
    fn from_view(view: Self::View<'_>) -> Self;

    /// The payload's wire bytes, handed over, if the owned payload *is*
    /// them (exactly what [`WirePayload::encode_payload`] would write, and
    /// bytes [`WirePayload::view`] accepts); the payload back otherwise,
    /// which is the default. A socket engine carries such a payload as it
    /// carries a received one: it sends the bytes from where they were
    /// written, never encodes them, and its pool takes the buffer back
    /// for an arrival once the last holder is done.
    ///
    /// # Errors
    ///
    /// The payload itself, when it has an owned form to be encoded from.
    fn into_wire(self) -> Result<Vec<u8>, Self> {
        Err(self)
    }

    /// An owned payload holding `bytes`, which `view` reads — the view
    /// [`WirePayload::view`] or [`WirePayload::view_accepted`] returned
    /// for them: by default the view copied out; a payload that is its
    /// bytes copies them.
    fn from_accepted(view: Self::View<'_>, _bytes: &[u8]) -> Self {
        Self::from_view(view)
    }

    /// Reconstructs a payload from its wire bytes: every check of
    /// [`WirePayload::view`], then [`WirePayload::from_accepted`].
    ///
    /// # Errors
    ///
    /// As [`WirePayload::view`].
    fn decode_payload(bytes: &[u8]) -> Result<Self, FrameError> {
        Self::view(bytes).map(|view| Self::from_accepted(view, bytes))
    }
}

impl WirePayload for Vec<u8> {
    type View<'a> = &'a [u8];

    fn payload_wire_len(&self) -> usize {
        self.len()
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn view(bytes: &[u8]) -> Result<&[u8], FrameError> {
        Ok(bytes)
    }

    fn as_view(&self) -> &[u8] {
        self
    }

    fn from_view(view: &[u8]) -> Self {
        view.to_vec()
    }
}

/// A relation inside a payload is not a valid encoding.
const BAD_RELATION: FrameError = FrameError::BadPayload(mem_joins::wire::BAD_RELATION);

impl WirePayload for relation::Relation {
    type View<'a> = relation::RelationView<'a>;

    fn payload_wire_len(&self) -> usize {
        relation::wire::encoded_len(self.len())
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        relation::wire::encode_into(self, out);
    }

    fn view(bytes: &[u8]) -> Result<relation::RelationView<'_>, FrameError> {
        relation::wire::view(bytes).map_err(|_| BAD_RELATION)
    }

    fn view_accepted(bytes: &[u8]) -> Result<relation::RelationView<'_>, FrameError> {
        relation::wire::view_unverified(bytes).map_err(|_| BAD_RELATION)
    }

    fn as_view(&self) -> relation::RelationView<'_> {
        self.into()
    }

    fn from_view(view: relation::RelationView<'_>) -> Self {
        view.to_relation()
    }
}

/// The format is the fragment's own ([`mem_joins::wire`]), and the
/// fragment is its bytes: a socket engine sends them from where the
/// fragment was prepared into them.
impl WirePayload for mem_joins::PreparedFragment {
    type View<'a> = mem_joins::FragmentView<'a>;

    fn payload_wire_len(&self) -> usize {
        self.as_bytes().len()
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn view(bytes: &[u8]) -> Result<mem_joins::FragmentView<'_>, FrameError> {
        mem_joins::wire::view(bytes).map_err(FrameError::BadPayload)
    }

    fn view_accepted(bytes: &[u8]) -> Result<mem_joins::FragmentView<'_>, FrameError> {
        mem_joins::wire::view_accepted(bytes).map_err(FrameError::BadPayload)
    }

    fn as_view(&self) -> mem_joins::FragmentView<'_> {
        self.view()
    }

    fn from_view(view: mem_joins::FragmentView<'_>) -> Self {
        view.to_prepared()
    }

    fn from_accepted(view: mem_joins::FragmentView<'_>, bytes: &[u8]) -> Self {
        mem_joins::PreparedFragment::from_accepted(view, bytes)
    }

    fn into_wire(self) -> Result<Vec<u8>, Self> {
        Ok(self.into_bytes())
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
    out.clear();
    out.extend_from_slice(&ack_frame(tid));
}

/// The whole acknowledgement frame of transfer `tid`.
fn ack_frame(tid: u64) -> [u8; FRAME_HEADER + ACK_BODY] {
    concat(&[
        &[KIND_ACK],
        &(ACK_BODY as u32).to_le_bytes(),
        &tid.to_le_bytes(),
    ])
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
    out.clear();
    out.reserve(ENVELOPE_HEAD + env.payload.payload_wire_len());
    out.extend_from_slice(&envelope_head(tid, env, 0));
    env.payload.encode_payload(out);
    close_frame(out)
}

/// The prefix and envelope header of `env`'s frame for transfer `tid`,
/// for a payload of `payload_len` bytes: everything of an envelope frame
/// but its payload, and everything that changes from hop to hop.
fn envelope_head<Q>(tid: u64, env: &Envelope<Q>, payload_len: usize) -> [u8; ENVELOPE_HEAD] {
    let fields: [&[u8]; 10] = [
        &[KIND_ENVELOPE],
        &((ENVELOPE_HEADER + payload_len) as u32).to_le_bytes(),
        &tid.to_le_bytes(),
        &(env.id.0 as u64).to_le_bytes(),
        &(env.origin.0 as u32).to_le_bytes(),
        &(env.hops_remaining as u32).to_le_bytes(),
        &env.seq.to_le_bytes(),
        &env.checksum.to_le_bytes(),
        &env.visited.to_le_bytes(),
        &env.query.to_le_bytes(),
    ];
    concat(&fields)
}

/// `fields` back to back in a fixed-size array (the fields fill it
/// exactly at every call site).
fn concat<const N: usize>(fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    let mut at = 0;
    for field in fields {
        if let Some(dst) = out.get_mut(at..at + field.len()) {
            dst.copy_from_slice(field);
        }
        at += field.len();
    }
    out
}

/// One frame on its way out of a socket medium: the bytes this hop writes
/// fresh, plus — for an envelope — the payload's shared wire bytes. It
/// leaves as the two slices of [`OutFrame::parts`], so forwarding a
/// payload never copies it.
pub(crate) enum OutFrame<P> {
    /// A transfer acknowledgement, whole.
    Ack([u8; FRAME_HEADER + ACK_BODY]),
    /// An envelope: its prefix and header, and its payload.
    Envelope {
        head: [u8; ENVELOPE_HEAD],
        payload: InFlight<P>,
    },
}

impl<P> OutFrame<P> {
    /// The acknowledgement of transfer `tid`.
    pub(crate) fn ack(tid: u64) -> Self {
        OutFrame::Ack(ack_frame(tid))
    }

    /// The frame's bytes in order: what this hop wrote, then the payload
    /// bytes it shares with every other holder (empty for an ack).
    pub(crate) fn parts(&self) -> [&[u8]; 2] {
        match self {
            OutFrame::Ack(frame) => [frame, &[]],
            OutFrame::Envelope { head, payload } => [head, payload.wire().unwrap_or_default()],
        }
    }
}

impl<P: WirePayload> OutFrame<P> {
    /// Frames `env` for transfer `tid`: a fresh header ahead of its
    /// payload's wire bytes — the bytes it is (prepared, or received), or
    /// an owned payload's, encoded into a buffer from `pool` on its first
    /// attempt out of its origin. Says whether this is that first attempt.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the payload would exceed
    /// [`MAX_FRAME`].
    pub(crate) fn envelope(
        tid: u64,
        env: Envelope<InFlight<P>>,
        pool: &Arc<FrameBufPool>,
    ) -> Result<(Self, bool), FrameError> {
        let (bytes, first) = env.payload.to_send(pool);
        let payload_len = bytes.len();
        if ENVELOPE_HEADER + payload_len > MAX_FRAME as usize {
            return Err(FrameError::Oversized {
                len: u32::MAX,
                max: MAX_FRAME,
            });
        }
        let head = envelope_head(tid, &env, payload_len);
        let frame = OutFrame::Envelope {
            head,
            payload: env.payload,
        };
        Ok((frame, first))
    }
}

/// Ceiling on the capacity a buffer may keep when it returns to the
/// [`FrameBufPool`]: one outsized envelope must not pin its high-water
/// allocation for the rest of the run.
const MAX_POOLED_CAPACITY: usize = 4 * 1024 * 1024;
/// Ceiling on pooled buffers; beyond it, returning buffers are dropped.
const MAX_POOLED_BUFS: usize = 64;
/// Ceiling on the cells the pool keeps; beyond it, a new cell is freed
/// with its last holder.
const MAX_POOLED_CELLS: usize = 1024;
/// Kept cells a lookup for a free one looks at before it settles for a
/// new one: what an arrival pays for a warm cell is bounded by this many
/// reference-count loads, however many copies are alive.
const CELL_PROBES: usize = 16;

/// A socket engine's shared pool of payload buffers and of the cells
/// wire copies live in. A decoder reads each envelope's payload into a
/// buffer from it and hands the bytes back in a cell from it
/// ([`FrameBufPool::cell`]); an origin puts a payload that is bytes
/// already in a cell from it (`InFlight::launch`), and encodes any other
/// payload into a buffer from it, which its last holder gives back
/// (`inflight::WireBytes`). So once the pool is warm a hop allocates
/// nothing for its frame, and the buffers fragments were prepared in
/// carry the arrivals after them.
///
/// The pool holds on to the cells it hands out, in a ring it looks round
/// like a clock hand. A cell whose only holder is the pool is free:
/// [`Arc::strong_count`] and [`Arc::get_mut`] say so under the pool's
/// lock, where nobody can clone it, so no drop has to report back. A free
/// cell keeps the body it last carried until a decoder takes the body or
/// an arrival takes the cell. The pool keeps at most `MAX_POOLED_BUFS`
/// free buffers and `MAX_POOLED_CELLS` cells, and no buffer over
/// `MAX_POOLED_CAPACITY`, in a cell or not.
#[derive(Default)]
pub(crate) struct FrameBufPool {
    stock: std::sync::Mutex<Stock>,
}

#[derive(Default)]
struct Stock {
    /// Free buffers.
    bufs: Vec<Vec<u8>>,
    /// The kept cells; the clock hand is at the front.
    cells: VecDeque<Arc<WireCell>>,
}

impl Stock {
    /// Keeps `buf` for the next taker, unless it holds nothing, is
    /// outsized, or the pool is full.
    fn keep(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0
            || buf.capacity() > MAX_POOLED_CAPACITY
            || self.bufs.len() >= MAX_POOLED_BUFS
        {
            return;
        }
        buf.clear();
        self.bufs.push(buf);
    }

    /// Turns the clock hand over at most `CELL_PROBES` cells, sending each
    /// one in use (or free but not `wanted`) to the back, and takes out
    /// the first free one that is `wanted`.
    fn free_cell(&mut self, wanted: impl Fn(&WireCell) -> bool) -> Option<Arc<WireCell>> {
        for _ in 0..CELL_PROBES.min(self.cells.len()) {
            let mut cell = self.cells.pop_front()?;
            if Arc::strong_count(&cell) == 1 && Arc::get_mut(&mut cell).is_some_and(|c| wanted(c)) {
                return Some(cell);
            }
            self.cells.push_back(cell);
        }
        None
    }
}

impl FrameBufPool {
    fn stock(&self) -> std::sync::MutexGuard<'_, Stock> {
        // A poisoned lock only means some thread panicked mid-push; the
        // pool's contents are plain byte buffers and cells nobody else
        // holds, always safe to reuse.
        self.stock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A recycled buffer — a free one, or the body a free cell still
    /// holds — or a fresh empty one when the pool has none to hand.
    pub(crate) fn take(&self) -> Vec<u8> {
        let mut stock = self.stock();
        if let Some(buf) = stock.bufs.pop() {
            return buf;
        }
        let Some(mut cell) = stock.free_cell(|c| c.capacity() > 0) else {
            return Vec::new();
        };
        let body = Arc::get_mut(&mut cell).map_or_else(Vec::new, WireCell::take_body);
        // The emptied cell stays under the hand, for this body's arrival.
        stock.cells.push_front(cell);
        body
    }

    /// Returns a buffer to the pool (oversized or surplus ones are freed).
    pub(crate) fn put(&self, buf: Vec<u8>) {
        self.stock().keep(buf);
    }

    /// A cell holding `fresh`: a free kept cell, refilled (the body it
    /// still held goes back to the buffers), or a new one.
    pub(crate) fn cell(&self, fresh: WireCell) -> Arc<WireCell> {
        if fresh.capacity() > MAX_POOLED_CAPACITY {
            return Arc::new(fresh);
        }
        let mut stock = self.stock();
        let cell = match stock.free_cell(|_| true) {
            Some(mut cell) => match Arc::get_mut(&mut cell) {
                Some(slot) => {
                    let body = std::mem::replace(slot, fresh).take_body();
                    stock.keep(body);
                    cell
                }
                // Unreachable: the lock is held and the pool was its only
                // holder. A new cell is still correct.
                None => Arc::new(fresh),
            },
            None => Arc::new(fresh),
        };
        if stock.cells.len() < MAX_POOLED_CELLS {
            stock.cells.push_back(Arc::clone(&cell));
        }
        cell
    }
}

/// Incremental frame decoder: feed it byte chunks as they come off a
/// socket, pull complete frames out. Partial frames wait for more bytes;
/// malformed ones surface as typed [`FrameError`]s, in stream order after
/// every frame that preceded them, and stop the decoder for good. The
/// decoder never panics on wire input, and what it holds is bounded by
/// what arrived: a length prefix reserves at most `MAX_POOLED_CAPACITY`
/// ahead of the bytes.
///
/// Each envelope body is read straight into a pooled buffer — the only
/// copy between the socket's read chunk and the visit that reads it.
#[derive(Default)]
pub struct FrameDecoder {
    /// The frame being assembled.
    partial: Partial,
    /// Complete frame bodies not yet pulled, in stream order.
    ready: VecDeque<Body>,
    /// The stream's first malformation: reported once `ready` drains, and
    /// for every call after.
    failed: Option<FrameError>,
    /// Where envelope bodies are read into.
    pool: Arc<FrameBufPool>,
}

/// The frame a [`FrameDecoder`] is in the middle of.
enum Partial {
    /// The `[kind][len]` prefix; `got` of its bytes are in.
    Prefix {
        bytes: [u8; FRAME_HEADER],
        got: usize,
    },
    /// A hello or ack body of `len` bytes, `got` of them in. The first
    /// [`HELLO_BODY`] — the most either kind reads — are kept.
    Control {
        kind: u8,
        len: usize,
        bytes: [u8; HELLO_BODY],
        got: usize,
    },
    /// An envelope body of `len` bytes: its header (`got` of its bytes
    /// in) into an array, its payload behind it into a pooled buffer.
    Envelope {
        len: usize,
        head: [u8; ENVELOPE_HEADER],
        got: usize,
        buf: Vec<u8>,
    },
}

impl Default for Partial {
    fn default() -> Self {
        Partial::Prefix {
            bytes: [0; FRAME_HEADER],
            got: 0,
        }
    }
}

/// A complete frame body, not yet decoded.
enum Body {
    Control {
        kind: u8,
        len: usize,
        bytes: [u8; HELLO_BODY],
    },
    /// The envelope header (`got` of its bytes: fewer only in a truncated
    /// body) and the payload.
    Envelope {
        head: [u8; ENVELOPE_HEADER],
        got: usize,
        payload: Vec<u8>,
    },
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("ready", &self.ready.len())
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

/// Moves as much of `from`'s front as `to` can take into it; returns how
/// many bytes moved.
fn take_into(to: &mut [u8], from: &mut &[u8]) -> usize {
    let n = to.len().min(from.len());
    if let (Some(dst), Some((src, rest))) = (to.get_mut(..n), from.split_at_checked(n)) {
        dst.copy_from_slice(src);
        *from = rest;
    }
    n
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// An empty decoder reading envelope bodies into buffers from `pool`.
    pub(crate) fn with_pool(pool: Arc<FrameBufPool>) -> Self {
        FrameDecoder {
            pool,
            ..FrameDecoder::default()
        }
    }

    /// Takes in freshly read bytes, completing whatever frames they
    /// complete.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        while self.failed.is_none() {
            let partial = std::mem::take(&mut self.partial);
            let (next, progressed) = self.advance(partial, &mut bytes);
            self.partial = next;
            if !progressed {
                return;
            }
        }
    }

    /// Moves `partial` forward on `input`: the state it reaches, and
    /// whether it completed a step (a prefix or a body), so that the next
    /// one may start — possibly on no bytes at all, for an empty body.
    fn advance(&mut self, partial: Partial, input: &mut &[u8]) -> (Partial, bool) {
        match partial {
            Partial::Prefix { mut bytes, mut got } => {
                got += take_into(bytes.get_mut(got..).unwrap_or_default(), input);
                let kind = bytes.first().copied().unwrap_or_default();
                if got > 0 && !matches!(kind, KIND_HELLO | KIND_ENVELOPE | KIND_ACK) {
                    self.failed = Some(FrameError::BadKind(kind));
                    return (Partial::default(), false);
                }
                if got < FRAME_HEADER {
                    return (Partial::Prefix { bytes, got }, false);
                }
                let len = read_u32(&bytes, 1).unwrap_or_default();
                if len > MAX_FRAME {
                    self.failed = Some(FrameError::Oversized {
                        len,
                        max: MAX_FRAME,
                    });
                    return (Partial::default(), false);
                }
                let len = len as usize;
                let body = if kind == KIND_ENVELOPE {
                    let mut buf = self.pool.take();
                    buf.reserve_exact(len.saturating_sub(ENVELOPE_HEADER).min(MAX_POOLED_CAPACITY));
                    Partial::Envelope {
                        len,
                        head: [0; ENVELOPE_HEADER],
                        got: 0,
                        buf,
                    }
                } else {
                    Partial::Control {
                        kind,
                        len,
                        bytes: [0; HELLO_BODY],
                        got: 0,
                    }
                };
                (body, true)
            }
            Partial::Control {
                kind,
                len,
                mut bytes,
                mut got,
            } => {
                let n = (len - got).min(input.len());
                let (mut chunk, rest) = input.split_at_checked(n).unwrap_or_default();
                *input = rest;
                take_into(bytes.get_mut(got..).unwrap_or_default(), &mut chunk);
                got += n;
                if got < len {
                    return (
                        Partial::Control {
                            kind,
                            len,
                            bytes,
                            got,
                        },
                        false,
                    );
                }
                self.ready.push_back(Body::Control { kind, len, bytes });
                (Partial::default(), true)
            }
            Partial::Envelope {
                len,
                mut head,
                mut got,
                mut buf,
            } => {
                // The header first; input is left over only once it is in.
                let head_len = len.min(ENVELOPE_HEADER);
                got += take_into(head.get_mut(got..head_len).unwrap_or_default(), input);
                let payload_len = len - head_len;
                let n = (payload_len - buf.len()).min(input.len());
                let (chunk, rest) = input.split_at_checked(n).unwrap_or_default();
                *input = rest;
                buf.extend_from_slice(chunk);
                if got < head_len || buf.len() < payload_len {
                    return (
                        Partial::Envelope {
                            len,
                            head,
                            got,
                            buf,
                        },
                        false,
                    );
                }
                self.ready.push_back(Body::Envelope {
                    head,
                    got,
                    payload: buf,
                });
                (Partial::default(), true)
            }
        }
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
        self.next_with(|bytes, pool| {
            let payload = P::decode_payload(&bytes);
            pool.put(bytes);
            payload
        })
    }

    /// Like [`FrameDecoder::next_frame`], but an envelope's payload is
    /// not decoded: its bytes are checked once ([`WirePayload::view`]) and
    /// the payload *is* that buffer from then on — viewed in place by
    /// every visit, forwarded as it is.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub(crate) fn next_in_flight<P: WirePayload>(
        &mut self,
    ) -> Result<Option<Frame<InFlight<P>>>, FrameError> {
        self.next_with(|bytes, pool| {
            let checked = P::view(&bytes).map(|view| view.payload_bytes());
            match checked {
                Ok(size) => Ok(InFlight::received(pool, bytes, size)),
                Err(e) => {
                    pool.put(bytes);
                    Err(e)
                }
            }
        })
    }

    /// Decodes the next complete frame, turning an envelope's payload
    /// bytes into its payload with `payload` (which owns the buffer from
    /// then on).
    fn next_with<Q>(
        &mut self,
        payload: impl FnOnce(Vec<u8>, &Arc<FrameBufPool>) -> Result<Q, FrameError>,
    ) -> Result<Option<Frame<Q>>, FrameError> {
        let Some(body) = self.ready.pop_front() else {
            return match &self.failed {
                Some(e) => Err(e.clone()),
                None => Ok(None),
            };
        };
        let decoded = decode_body(body, &self.pool, payload);
        if let Err(e) = &decoded {
            // Nothing after a malformed frame is trusted.
            self.failed = Some(e.clone());
            for body in self.ready.drain(..) {
                if let Body::Envelope { payload, .. } = body {
                    self.pool.put(payload);
                }
            }
        }
        decoded.map(Some)
    }
}

fn decode_body<Q>(
    body: Body,
    pool: &Arc<FrameBufPool>,
    payload: impl FnOnce(Vec<u8>, &Arc<FrameBufPool>) -> Result<Q, FrameError>,
) -> Result<Frame<Q>, FrameError> {
    let (kind, got, needed) = match &body {
        Body::Control { kind, len, .. } if *kind == KIND_HELLO => (*kind, *len, HELLO_BODY),
        Body::Control { kind, len, .. } => (*kind, *len, ACK_BODY),
        Body::Envelope { got, .. } => (KIND_ENVELOPE, *got, ENVELOPE_HEADER),
    };
    if got < needed {
        if let Body::Envelope { payload, .. } = body {
            pool.put(payload);
        }
        return Err(FrameError::Truncated { needed, got });
    }
    match body {
        Body::Control { bytes, .. } if kind == KIND_HELLO => Ok(Frame::Hello {
            nonce: read_u64(&bytes, 0).unwrap_or_default(),
            host: read_u32(&bytes, 8).unwrap_or_default(),
        }),
        Body::Control { bytes, .. } => Ok(Frame::Ack {
            tid: read_u64(&bytes, 0).unwrap_or_default(),
        }),
        Body::Envelope {
            head: buf,
            payload: bytes,
            ..
        } => {
            let tid = read_u64(&buf, 0).unwrap_or_default();
            let id = FragmentId(read_u64(&buf, 8).unwrap_or_default() as usize);
            let origin = HostId(read_u32(&buf, 16).unwrap_or_default() as usize);
            let hops_remaining = read_u32(&buf, 20).unwrap_or_default() as usize;
            let seq = read_u64(&buf, 24).unwrap_or_default();
            let checksum = read_u64(&buf, 32).unwrap_or_default();
            let visited = read_u64(&buf, 40).unwrap_or_default();
            let query = read_u32(&buf, 48).unwrap_or_default();
            Ok(Frame::Envelope {
                tid,
                env: Envelope {
                    id,
                    origin,
                    hops_remaining,
                    seq,
                    checksum,
                    visited,
                    query,
                    payload: payload(bytes, pool)?,
                },
            })
        }
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
/// complete `[kind][len][body]` encoding, so the prefix and payload of
/// many frames leave in a single syscall instead of one `write_all` per
/// frame. Short writes resume from the exact byte offset; `Interrupted`
/// retries; a zero-length write reports the peer gone as `WriteZero`.
pub fn write_frames_vectored<W: Write>(stream: &mut W, frames: &[Vec<u8>]) -> std::io::Result<()> {
    write_parts_vectored(stream, frames.iter().map(Vec::as_slice))
}

/// Writes `parts` back to back, as [`write_frames_vectored`] does frames:
/// each submission carries up to `MAX_WRITE_SLICES` of them, from a fixed
/// array, so a write costs no allocation.
pub(crate) fn write_parts_vectored<'a, W: Write>(
    stream: &mut W,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> std::io::Result<()> {
    let total: usize = parts.clone().map(<[u8]>::len).sum();
    let mut written = 0usize;
    while written < total {
        let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
        let used = unwritten(parts.clone(), written, &mut slices);
        match stream.write_vectored(slices.get(..used).unwrap_or_default()) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written = written.saturating_add(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Fills `slices` with what is left of `parts` once the first `written`
/// bytes are gone, in order and as far as `slices` reaches; returns how
/// many it filled.
pub(crate) fn unwritten<'a>(
    parts: impl Iterator<Item = &'a [u8]>,
    written: usize,
    slices: &mut [IoSlice<'a>],
) -> usize {
    let mut skip = written;
    let mut used = 0;
    for part in parts {
        if skip >= part.len() {
            skip -= part.len();
            continue;
        }
        let Some(slot) = slices.get_mut(used) else {
            break;
        };
        *slot = IoSlice::new(part.get(skip..).unwrap_or_default());
        skip = 0;
        used += 1;
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflight::Visit;
    use mem_joins::wire::{PARTITION_TABLE_OVERRUN, TAG_HASH};

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
            assert_eq!(back.payload_checksum(), frag.payload_checksum());
            assert_eq!(back, frag);
            let viewed = mem_joins::wire::view_accepted(&bytes).unwrap();
            assert_eq!(PreparedFragment::from_accepted(viewed, &bytes), frag);
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

    /// Nine bytes claiming 2²⁴ radix partitions: the count is consistent
    /// with the bits, but the payload cannot hold its partition table, so
    /// it is refused before a 2²⁴-entry partition list is sized from it.
    #[test]
    fn hostile_partition_count_is_refused_before_allocating() {
        let hostile = [TAG_HASH, 24, 0, 0, 0, 0, 0, 0, 1];
        assert_eq!(
            mem_joins::PreparedFragment::decode_payload(&hostile).unwrap_err(),
            FrameError::BadPayload(PARTITION_TABLE_OVERRUN)
        );
        // The same bytes as an envelope's payload end the stream in the
        // same typed error.
        let env = Envelope::new(FragmentId(1), HostId(0), 2, hostile.to_vec());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&encode_envelope(3, &env).unwrap());
        let err = decoder
            .next_frame::<mem_joins::PreparedFragment>()
            .unwrap_err();
        assert_eq!(err, FrameError::BadPayload(PARTITION_TABLE_OVERRUN));
        assert_eq!(
            RingError::from(err.clone()),
            RingError::Frame(err.clone()),
            "a socket engine reports it as a typed ring error"
        );
        assert_eq!(
            decoder
                .next_frame::<mem_joins::PreparedFragment>()
                .unwrap_err(),
            err,
            "nothing after a malformed frame is trusted"
        );
    }

    #[test]
    fn decoded_bodies_come_from_and_return_to_the_pool() {
        let pool = Arc::new(FrameBufPool::default());
        let mut recycled = Vec::with_capacity(4096);
        recycled.push(1);
        pool.put(recycled);
        let env = Envelope::new(FragmentId(2), HostId(1), 3, vec![5u8; 1000]);
        let bytes = encode_envelope(4, &env).unwrap();
        let mut decoder = FrameDecoder::with_pool(Arc::clone(&pool));
        decoder.feed(&bytes);
        assert!(
            pool.take().capacity() == 0,
            "the body took the pooled buffer"
        );
        let Some(Frame::Envelope { env: got, .. }) = decoder.next_in_flight::<Vec<u8>>().unwrap()
        else {
            panic!("expected an envelope frame");
        };
        assert_eq!(got.payload.visit().map(Visit::view), Some(&env.payload[..]));
        assert_eq!(got.payload.wire(), Some(&env.payload[..]));
        drop(got);
        assert!(
            pool.take().capacity() >= 4096,
            "the last holder gives the body back"
        );
    }

    /// The frame bytes of one small envelope and a decoder on `pool`.
    fn small_frame(pool: &Arc<FrameBufPool>) -> (Vec<u8>, FrameDecoder) {
        let env = Envelope::new(FragmentId(3), HostId(0), 4, vec![7u8; 200]);
        let bytes = encode_envelope(9, &env).unwrap();
        (bytes, FrameDecoder::with_pool(Arc::clone(pool)))
    }

    /// Feeds `bytes` and returns the received copy they decode to.
    fn arrive(decoder: &mut FrameDecoder, bytes: &[u8]) -> InFlight<Vec<u8>> {
        decoder.feed(bytes);
        match decoder.next_in_flight::<Vec<u8>>() {
            Ok(Some(Frame::Envelope { env, .. })) => env.payload,
            other => panic!("expected an envelope frame, got {:?}", other.map(|_| ())),
        }
    }

    /// Once a received copy's holders are gone its cell is free, and the
    /// next arrival lands in it: the same cell, arrival after arrival, and
    /// its bytes are the new frame's.
    #[test]
    fn an_arrival_reuses_its_warm_cell() {
        let pool = Arc::new(FrameBufPool::default());
        let (bytes, mut decoder) = small_frame(&pool);
        let first = arrive(&mut decoder, &bytes);
        let cell = first.cell_ptr().expect("a received copy has a cell");
        drop(first);
        for _ in 0..5 {
            let again = arrive(&mut decoder, &bytes);
            assert_eq!(
                again.cell_ptr(),
                Some(cell),
                "the warm cell takes the arrival"
            );
            assert_eq!(again.wire(), Some(&[7u8; 200][..]));
            assert_eq!(again.payload_checksum(), vec![7u8; 200].payload_checksum());
        }
    }

    /// A copy another thread still holds keeps its cell out of the pool:
    /// arrivals meanwhile land elsewhere, and the cell comes back only once
    /// that thread drops the copy.
    #[test]
    fn a_copy_held_on_another_thread_keeps_its_cell() {
        let pool = Arc::new(FrameBufPool::default());
        let (bytes, mut decoder) = small_frame(&pool);
        let held = arrive(&mut decoder, &bytes);
        let cell = held.cell_ptr();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let copy = held.clone();
            drop(held);
            released.recv().expect("released");
            drop(copy);
        });
        for _ in 0..3 {
            let other = arrive(&mut decoder, &bytes);
            assert_ne!(other.cell_ptr(), cell, "a held cell is not free");
        }
        release.send(()).expect("holder waits");
        holder.join().expect("holder ran");
        let back = arrive(&mut decoder, &bytes);
        assert_eq!(
            back.cell_ptr(),
            cell,
            "dropped there, the cell is free again"
        );
    }

    /// The buffer a fragment was prepared in takes the next arrival of its
    /// size once its origin is done with it: it holds the payload and
    /// nothing else, as an arrival's buffer does, so the arrival lands in
    /// the launched cell and that buffer, at its capacity, and allocates
    /// nothing.
    #[test]
    fn a_returned_origin_buffer_takes_the_next_arrival_without_allocating() {
        use mem_joins::{Algorithm, PreparedFragment};
        let pool = Arc::new(FrameBufPool::default());
        let rel = relation::GenSpec::uniform(128, 6).generate();
        let prepare = || Algorithm::partitioned_hash().prepare_fragment(&rel, 3, 1);
        let env = Envelope::new(FragmentId(1), HostId(2), 4, prepare());
        let frame = encode_envelope(5, &env).unwrap();
        let mut decoder = FrameDecoder::with_pool(Arc::clone(&pool));
        let arrive = |decoder: &mut FrameDecoder| {
            decoder.feed(&frame);
            match decoder.next_in_flight::<PreparedFragment>() {
                Ok(Some(Frame::Envelope { env, .. })) => env.payload,
                _ => panic!("expected an envelope frame"),
            }
        };
        // A first arrival, still held: the decoder is warm, and its cell
        // is busy.
        let held = arrive(&mut decoder);
        let prepared = prepare();
        let (at, len) = (prepared.as_bytes().as_ptr(), prepared.as_bytes().len());
        let origin = InFlight::launch(&pool, prepared);
        let cell = origin.cell_ptr();
        drop(origin);
        let (arrival, allocs) = crate::alloc_count::counted(|| arrive(&mut decoder));
        assert_eq!(allocs, 0, "a warm arrival allocates nothing");
        assert_eq!(arrival.cell_ptr(), cell, "it lands in the launched cell");
        assert_eq!(arrival.wire().map(<[u8]>::as_ptr), Some(at), "and buffer");
        assert_eq!(arrival.wire(), held.wire());
        drop(arrival);
        assert_eq!(pool.take().capacity(), len, "the buffer kept its capacity");
    }

    /// A socket that takes at most `per_call` bytes per write, spread
    /// over as many slices as they reach, and is interrupted every third
    /// call; with `per_call` 0 its peer is gone.
    #[derive(Default)]
    struct Trickle {
        per_call: usize,
        calls: usize,
        out: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            assert!(bufs.len() <= MAX_WRITE_SLICES, "one submission, one array");
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut room = self.per_call;
            for buf in bufs {
                let take = buf.len().min(room);
                self.out.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What a vectored write puts on the wire is its parts back to back,
    /// however the socket cuts the writes: more parts than one submission
    /// carries, empty ones among them, resumed from the exact byte after
    /// every short write and retried after every interruption. A socket
    /// that takes nothing ends the write in `WriteZero`.
    #[test]
    fn vectored_writes_put_the_parts_on_the_wire_in_order() {
        let parts: Vec<Vec<u8>> = (0..3 * MAX_WRITE_SLICES + 5)
            .map(|i| (0..(i * 7) % 11).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        assert!(parts.iter().any(Vec::is_empty));
        let expected = parts.concat();
        for per_call in 1..=7 {
            let mut sink = Trickle {
                per_call,
                ..Trickle::default()
            };
            write_parts_vectored(&mut sink, parts.iter().map(Vec::as_slice)).unwrap();
            assert_eq!(sink.out, expected, "parts, {per_call} bytes per write");
            sink.out.clear();
            write_frames_vectored(&mut sink, &parts).unwrap();
            assert_eq!(sink.out, expected, "frames, {per_call} bytes per write");
        }
        let gone = write_frames_vectored(&mut Trickle::default(), &parts).unwrap_err();
        assert_eq!(gone.kind(), std::io::ErrorKind::WriteZero);
    }

    /// `env`'s header around `payload`.
    fn with_payload<A, B>(env: &Envelope<A>, payload: B) -> Envelope<B> {
        Envelope {
            id: env.id,
            origin: env.origin,
            hops_remaining: env.hops_remaining,
            seq: env.seq,
            checksum: env.checksum,
            visited: env.visited,
            query: env.query,
            payload,
        }
    }

    /// One payload of the proptest below, typed.
    fn forward_matches_reencode<P>(payload: P, tids: (u64, u64), hops: usize, step: usize)
    where
        P: WirePayload + Clone,
    {
        let pool = Arc::new(FrameBufPool::default());
        let mut env = Envelope::new(FragmentId(11), HostId(3), hops + 1, payload);
        env.seq = tids.0 ^ 0x55;
        env.visited = 0b1000;
        env.query = 2;
        // The origin launches it as a socket engine does: a payload with
        // an owned form is encoded once, one that is its wire bytes is
        // sent as it is. Either way its frame is the public encoding.
        let origin = with_payload(&env, InFlight::launch(&pool, env.payload.clone()));
        let (frame, first) = OutFrame::envelope(tids.0, origin, &pool).unwrap();
        assert!(first, "the origin's first send");
        let wire = frame.parts().concat();
        assert_eq!(wire, encode_envelope(tids.0, &env).unwrap());
        // The successor reads it at arbitrary split points …
        let mut decoder = FrameDecoder::with_pool(Arc::clone(&pool));
        let mut received = None;
        for chunk in wire.chunks(step) {
            decoder.feed(chunk);
            while let Some(frame) = decoder.next_in_flight::<P>().unwrap() {
                assert!(received.is_none(), "one frame in, one frame out");
                received = Some(frame);
            }
        }
        let Some(Frame::Envelope { tid, env: mut next }) = received else {
            panic!("the envelope must arrive whole");
        };
        assert_eq!(tid, tids.0);
        // … visits it — a view of the bytes it arrived in, as often as
        // healing asks — and forwards it with a new header and its bytes.
        next.hops_remaining -= 1;
        next.seq = tids.1 ^ 0xaa;
        next.visited |= 0b0100;
        let decoded = P::from_view(next.payload.visit().unwrap().view());
        let revisited = P::from_view(next.payload.visit().unwrap().view());
        assert_eq!(
            encode_envelope(tids.1, &with_payload(&next, revisited)).unwrap(),
            encode_envelope(tids.1, &with_payload(&next, decoded.clone())).unwrap(),
        );
        let reencoded = encode_envelope(tids.1, &with_payload(&next, decoded)).unwrap();
        let (frame, first) = OutFrame::envelope(tids.1, next, &pool).unwrap();
        assert!(!first, "a forward is no origin's send");
        assert_eq!(frame.parts().concat(), reencoded);
    }

    fn wire_bytes<P: WirePayload>(payload: &P) -> Vec<u8> {
        let mut bytes = Vec::new();
        payload.encode_payload(&mut bytes);
        bytes
    }

    /// Every partition's tuples, in order, of a prepared-fragment view.
    fn fragment_tuples(view: mem_joins::FragmentView<'_>) -> Vec<Vec<relation::Tuple>> {
        use mem_joins::FragmentView;
        match view {
            FragmentView::HashPartitioned(parts) => {
                parts.partitions().map(|p| p.iter().collect()).collect()
            }
            FragmentView::Sorted(rel) | FragmentView::Plain(rel) => vec![rel.iter().collect()],
        }
    }

    /// What a mutated body must come to.
    enum Expect<'a, P> {
        /// Untouched: it views as `P`, tuple for tuple.
        Intact(&'a P),
        /// A byte the format checks changed: it is refused.
        Refused,
        /// Only the tag changed (plain and sorted share a layout, and a
        /// sorted relation is also a plain one): either may happen.
        Either,
    }

    /// `body`, placed at `offset` of its buffer (so its columns sit at any
    /// alignment), viewed and decoded: both refuse it with the same error,
    /// or both accept it — and then the view reads the decoded payload's
    /// tuples, sizes and checksums it alike, and views it again unchecked
    /// to the same tuples. Since decoding is the view copied out, `expect`
    /// also holds the view to the payload the body was encoded from.
    fn view_agrees_with_decode<P: WirePayload>(
        body: &[u8],
        offset: usize,
        expect: Expect<'_, P>,
        tuples: impl for<'v> Fn(P::View<'v>) -> Vec<Vec<relation::Tuple>>,
    ) {
        let mut buf = vec![0x5A; offset];
        buf.extend_from_slice(body);
        let bytes = &buf[offset..];
        let (viewed, decoded) = (P::view(bytes), P::decode_payload(bytes));
        match (viewed, decoded) {
            (Err(viewed), Err(decoded)) => {
                assert_eq!(viewed, decoded);
                assert!(
                    !matches!(expect, Expect::Intact(_)),
                    "intact bytes refused: {viewed:?}"
                );
            }
            (Ok(view), Ok(owned)) => {
                assert_eq!(tuples(view), tuples(owned.as_view()));
                assert_eq!(view.payload_bytes(), owned.payload_bytes());
                assert_eq!(view.payload_checksum(), owned.payload_checksum());
                let again = P::view_accepted(bytes).expect("accepted bytes view again");
                assert_eq!(tuples(again), tuples(view));
                match expect {
                    Expect::Intact(source) => {
                        assert_eq!(tuples(view), tuples(source.as_view()));
                        assert_eq!(view.payload_checksum(), source.payload_checksum());
                    }
                    Expect::Refused => panic!("a corrupted body was accepted"),
                    Expect::Either => {}
                }
            }
            (viewed, decoded) => panic!(
                "view says {:?}, decode says {:?}",
                viewed.err(),
                decoded.err()
            ),
        };
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The view refuses exactly what decode refuses, with the same
        /// error, and reads what decode yields: relations and every
        /// prepared-fragment form (radix bits 0–6, empty fragments
        /// included), intact or with bytes flipped anywhere (the columns
        /// included), truncated, with a hostile partition count, or as a
        /// sorted run whose keys are not sorted, at every offset 1–7 of
        /// the receive buffer. Intact bytes view as the payload they were
        /// encoded from; bytes changed anywhere but the tag are refused.
        #[test]
        fn the_view_refuses_exactly_what_decode_refuses(
            form in 0u8..4,
            tuples in 0usize..300,
            empty in 0u8..5,
            bits in 0u32..7,
            mutation in 0u8..6,
            seed in proptest::prelude::any::<u64>(),
            offset in 1usize..8,
        ) {
            use mem_joins::{Algorithm, PreparedFragment};
            let tuples = if empty == 0 { 0 } else { tuples };
            let rel = relation::GenSpec::uniform(tuples, seed).generate();
            let fragment = match form {
                1 => Algorithm::NestedLoops.prepare_fragment(&rel, 0, 1),
                2 => Algorithm::SortMerge.prepare_fragment(&rel, 0, 1),
                _ => Algorithm::partitioned_hash().prepare_fragment(&rel, bits, 1),
            };
            let unsorted = form == 2 && mutation == 4;
            let original = match form {
                0 => wire_bytes(&rel),
                _ if unsorted => {
                    // A sorted run as a broken peer might send it: the
                    // generator's order, whole and checksummed.
                    let mut bytes = vec![mem_joins::wire::TAG_SORTED];
                    relation::wire::encode_into(&rel, &mut bytes);
                    bytes
                }
                _ => wire_bytes(&fragment),
            };
            let mut body = original.clone();
            let mut dice = seed;
            let mut roll = |below: usize| {
                dice = dice.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (dice >> 33) as usize % below.max(1)
            };
            match mutation {
                // Flip 1–3 bits anywhere: headers, tables and columns.
                1 | 5 => for _ in 0..1 + roll(3) {
                    let at = roll(body.len());
                    if let Some(byte) = body.get_mut(at) {
                        *byte ^= 1 << roll(8);
                    }
                },
                2 => body.truncate(roll(body.len() + 1)),
                3 if form == 3 => {
                    // A hostile radix header: any count, any bits.
                    let field = 1 + 4 * roll(2);
                    let hostile = (roll(usize::MAX) as u32) >> roll(32);
                    if let Some(slot) = body.get_mut(field..field + 4) {
                        slot.copy_from_slice(&hostile.to_le_bytes());
                    }
                }
                _ => {}
            }
            let tag = usize::from(form != 0);
            let rest_changed = body.get(tag..) != original.get(tag..);
            match form {
                0 => {
                    let expect = if rest_changed { Expect::Refused } else { Expect::Intact(&rel) };
                    view_agrees_with_decode(&body, offset, expect, |view: relation::RelationView<'_>| {
                        vec![view.iter().collect()]
                    });
                }
                _ => {
                    let expect = if rest_changed {
                        Expect::Refused
                    } else if unsorted {
                        if rel.is_sorted_by_key() { Expect::Either } else { Expect::Refused }
                    } else if body != original {
                        Expect::Either
                    } else {
                        Expect::Intact(&fragment)
                    };
                    view_agrees_with_decode::<PreparedFragment>(&body, offset, expect, fragment_tuples);
                }
            }
        }

        /// Forwarded bytes ≡ re-encoded bytes: an envelope framed from the
        /// bytes it arrived in equals a fresh encoding of the decoded
        /// payload under the new header, for raw bytes, relations and
        /// every prepared-fragment form (empty fragments and radix bits
        /// 0–6 included), read through the decoder at any split.
        #[test]
        fn forwarded_bytes_equal_reencoded_bytes(
            form in 0u8..5,
            tuples in 0usize..400,
            bits in 0u32..7,
            seed in proptest::prelude::any::<u64>(),
            step in 1usize..700,
            tids in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
        ) {
            use mem_joins::Algorithm;
            let rel = relation::GenSpec::uniform(tuples, seed).generate();
            let hops = 1 + (seed % 6) as usize;
            match form {
                0 => {
                    let bytes = (0..tuples).map(|i| (i as u64 ^ seed) as u8).collect::<Vec<u8>>();
                    forward_matches_reencode(bytes, tids, hops, step);
                }
                1 => forward_matches_reencode(rel, tids, hops, step),
                2 => forward_matches_reencode(
                    Algorithm::NestedLoops.prepare_fragment(&rel, 0, 1), tids, hops, step),
                3 => forward_matches_reencode(
                    Algorithm::SortMerge.prepare_fragment(&rel, 0, 1), tids, hops, step),
                _ => forward_matches_reencode(
                    Algorithm::partitioned_hash().prepare_fragment(&rel, bits, 1), tids, hops, step),
            }
        }
    }
}
