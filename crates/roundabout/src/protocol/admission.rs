//! Multi-tenant admission and fairness: the per-query ledger of the
//! multiplexed ring.
//!
//! One ring, many in-flight joins. Each query gets its own slice of every
//! host's buffer pool (a *credit partition*: at most `quota` of the
//! `buffers_per_host` elements may hold that query's envelopes), its own
//! completion accounting, and its own retransmit/checksum counters keyed
//! off the `query` field every envelope now carries. Healing, membership
//! epochs and the fault dice stay ring-global — a crash is a property of
//! the ring, not of any one query.
//!
//! Two schedulers live here, both deficit round-robin with quantum 1
//! (which degenerates to round-robin, with the deficit tracked so the
//! fairness bound is a checkable property, not a hope):
//!
//! * **admission**: at most `max_active` queries circulate at once;
//!   pending queries wait in tenant-fair order and are admitted as
//!   active queries complete;
//! * **transmission**: when a host's wire frees up, the next envelope is
//!   chosen by rotating a per-host cursor over the queries with queued
//!   envelopes, skipping queries whose credit partition at the successor
//!   is exhausted. A query skipped while eligible accrues *deficit*;
//!   being served resets it. With round-robin service the deficit of any
//!   query is bounded by the number of competing queries times the
//!   successor's pool depth — the `max_deficit` watermark lets tests
//!   assert a concrete bound.
//!
//! Like everything under `protocol/`, this file is sans-IO (lint L5):
//! the ring coordinator calls in, the driver never does.

use crate::envelope::{Envelope, PayloadBytes};

/// What [`QueryLedger::admit_next`] hands back: the admitted query id,
/// its tenant, and the pre-numbered per-host envelope batches to inject.
pub type AdmittedQuery<P> = (u32, u32, Vec<Vec<Envelope<P>>>);

/// Lifecycle of one multiplexed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Waiting in the admission queue; its envelopes are not on the ring.
    Pending,
    /// Admitted: its envelopes circulate.
    Active,
    /// Every fragment completed its revolution.
    Done,
}

/// One query's slice of the multiplexed ring.
#[derive(Debug, Clone)]
pub struct QueryEntry<P> {
    /// The tenant that submitted the query (fairness key).
    pub tenant: u32,
    /// Lifecycle state.
    pub status: QueryStatus,
    /// Fragments this query injected (fixed at submission).
    pub total: usize,
    /// Fragments that completed their revolution.
    pub completed: usize,
    /// Pre-numbered per-host envelopes, held until admission (drained
    /// into the ring when the query goes active).
    pub batches: Vec<Vec<Envelope<P>>>,
    /// Retransmissions attributed to this query's envelopes.
    pub retransmits: u64,
    /// Corrupted deliveries of this query's envelopes.
    pub checksum_mismatches: u64,
}

/// The multi-tenant coordinator state: admission queue, credit quotas,
/// per-query wire sequences and counters, and the transmit-side
/// fairness cursors.
#[derive(Debug, Clone)]
pub struct QueryLedger<P> {
    queries: Vec<QueryEntry<P>>,
    /// Buffer-pool elements each query may hold at any single host — the
    /// credit partition width.
    quota: usize,
    /// Maximum concurrently active queries.
    max_active: usize,
    active: usize,
    admitted_total: u64,
    completed_total: u64,
    /// Tenant-fair admission cursor: index into `queries` after which the
    /// next pending query is searched (round-robin over submission order
    /// grouped by tenant arrival).
    admit_cursor: usize,
    /// Per-(host, query) wire sequence. Stamped into the low 32 bits of
    /// `env.seq` with the query id in the high bits, so each query's
    /// sequence space is private: the fault dice (keyed on the full seq)
    /// roll identically across backends *per query*, independent of how
    /// the backends interleave queries.
    wire_seq: Vec<Vec<u64>>,
    /// Per-host transmit cursor over query ids.
    send_cursor: Vec<usize>,
    /// Consecutive times each query was skipped by a transmit decision
    /// while it had queued envelopes (reset when served).
    deficit: Vec<u64>,
    /// High-water mark of `deficit` — the fairness bound tests assert.
    max_deficit: u64,
}

impl<P: PayloadBytes + Clone> QueryLedger<P> {
    /// Builds the ledger for `queries` (tenant, pre-numbered per-host
    /// envelope batches), on a ring of `hosts` hosts with
    /// `buffers_per_host` pool elements each, admitting at most
    /// `max_active` queries concurrently.
    ///
    /// # Panics
    ///
    /// Panics on zero queries or a zero `max_active`.
    pub fn new(
        queries: Vec<(u32, Vec<Vec<Envelope<P>>>)>,
        hosts: usize,
        buffers_per_host: usize,
        max_active: usize,
    ) -> Self {
        assert!(!queries.is_empty(), "a multi-tenant ring needs queries");
        assert!(max_active > 0, "max_active must admit at least one query");
        let n = queries.len();
        let quota = (buffers_per_host / max_active.min(n)).max(1);
        QueryLedger {
            queries: queries
                .into_iter()
                .map(|(tenant, batches)| QueryEntry {
                    tenant,
                    status: QueryStatus::Pending,
                    total: batches.iter().map(Vec::len).sum(),
                    completed: 0,
                    batches,
                    retransmits: 0,
                    checksum_mismatches: 0,
                })
                .collect(),
            quota,
            max_active,
            active: 0,
            admitted_total: 0,
            completed_total: 0,
            admit_cursor: 0,
            wire_seq: vec![vec![0; n]; hosts],
            send_cursor: vec![0; hosts],
            deficit: vec![0; n],
            max_deficit: 0,
        }
    }

    /// Number of queries submitted (all lifecycles).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries were submitted (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The credit-partition width: pool elements per query per host.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// One query's entry (read-only).
    pub fn entry(&self, query: u32) -> Option<&QueryEntry<P>> {
        self.queries.get(query as usize)
    }

    /// Queries admitted so far.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Queries fully completed so far.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Have all queries completed?
    pub fn all_done(&self) -> bool {
        self.completed_total as usize == self.queries.len()
    }

    /// The fairness watermark: the most consecutive transmit decisions
    /// any query with queued envelopes sat out.
    pub fn max_deficit(&self) -> u64 {
        self.max_deficit
    }

    /// The admission cursor (fingerprinted: it decides who enters next).
    pub fn admit_cursor(&self) -> usize {
        self.admit_cursor
    }

    /// The per-host transmit cursors (fingerprinted: they decide which
    /// query each host serves next).
    pub fn send_cursors(&self) -> &[usize] {
        &self.send_cursor
    }

    /// Per-query retransmission counter.
    pub fn retransmits(&self, query: u32) -> u64 {
        self.queries
            .get(query as usize)
            .map_or(0, |q| q.retransmits)
    }

    /// Per-query checksum-mismatch counter.
    pub fn checksum_mismatches(&self, query: u32) -> u64 {
        self.queries
            .get(query as usize)
            .map_or(0, |q| q.checksum_mismatches)
    }

    /// Attributes one retransmission to `query`.
    pub fn count_retransmit(&mut self, query: u32) {
        if let Some(q) = self.queries.get_mut(query as usize) {
            q.retransmits += 1;
        }
    }

    /// Attributes one corrupted delivery to `query`.
    pub fn count_checksum_mismatch(&mut self, query: u32) {
        if let Some(q) = self.queries.get_mut(query as usize) {
            q.checksum_mismatches += 1;
        }
    }

    /// Stamps the next wire sequence for (`host`, `query`): the query id
    /// in the high 32 bits, the per-query counter in the low 32.
    // analyze: allow(panic, reason = "host and query ids index tables sized at construction")
    pub fn next_seq(&mut self, host: usize, query: u32) -> u64 {
        let s = &mut self.wire_seq[host][query as usize];
        *s += 1;
        ((query as u64) << 32) | (*s & 0xffff_ffff)
    }

    /// Records one completed fragment revolution for `query`; returns
    /// `true` when that was the query's last fragment (it is now `Done`).
    pub fn note_completed(&mut self, query: u32) -> bool {
        let Some(q) = self.queries.get_mut(query as usize) else {
            return false;
        };
        q.completed += 1;
        if q.status == QueryStatus::Active && q.completed >= q.total {
            q.status = QueryStatus::Done;
            self.active -= 1;
            self.completed_total += 1;
            return true;
        }
        false
    }

    /// Admits the next pending query in tenant-fair rotation, if an
    /// active slot is free. Returns the admitted query id, its tenant,
    /// and its envelope batches for injection.
    pub fn admit_next(&mut self) -> Option<AdmittedQuery<P>> {
        if self.active >= self.max_active {
            return None;
        }
        let n = self.queries.len();
        for step in 0..n {
            let idx = (self.admit_cursor + step) % n;
            let Some(q) = self.queries.get_mut(idx) else {
                continue;
            };
            if q.status == QueryStatus::Pending {
                q.status = QueryStatus::Active;
                let tenant = q.tenant;
                let batches = std::mem::take(&mut q.batches);
                self.admit_cursor = (idx + 1) % n;
                self.active += 1;
                self.admitted_total += 1;
                return Some((idx as u32, tenant, batches));
            }
        }
        None
    }

    /// Fills `order` (cleared first) with the transmit-side candidate
    /// order for `host`: query ids rotated by the host's fairness cursor,
    /// restricted to `queued` (queries with envelopes in the host's
    /// outgoing queue).
    // analyze: allow(panic, reason = "host ids index tables sized at construction")
    pub fn send_order(&self, host: usize, queued: &[u32], order: &mut Vec<u32>) {
        let n = self.queries.len();
        let start = self.send_cursor[host] % n.max(1);
        order.clear();
        order.extend(
            (0..n)
                .map(|step| ((start + step) % n) as u32)
                .filter(|q| queued.contains(q)),
        );
    }

    /// Records that `host` transmitted for `query`: advances the host's
    /// cursor past it and resets the query's deficit; every *other*
    /// eligible query in `queued` accrues one deficit tick.
    // analyze: allow(panic, reason = "host and query ids index tables sized at construction")
    pub fn note_served(&mut self, host: usize, query: u32, queued: &[u32]) {
        self.send_cursor[host] = (query as usize + 1) % self.queries.len();
        self.deficit[query as usize] = 0;
        for &other in queued {
            if other != query {
                let d = &mut self.deficit[other as usize];
                *d += 1;
                self.max_deficit = self.max_deficit.max(*d);
            }
        }
    }
}
