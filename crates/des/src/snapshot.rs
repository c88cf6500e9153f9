//! Versioned, checksummed engine snapshots for crash-safe runs.
//!
//! A [`Snapshot`] captures every bit of mutable state a suspended
//! [`crate::engine::Simulation`] needs to continue *exactly* where it
//! stopped: the three RNG stream states, the peer slab (tombstones
//! included), the free list, pending event registers, observer
//! accumulators, and the in-progress trajectory. Run → snapshot → restore
//! → run is bit-identical to an uninterrupted run — the
//! `snapshot_resume` integration test asserts this across every scheme,
//! for incremental runs and the forced-full-recompute test reference.
//!
//! ## What is deliberately *not* serialized
//!
//! * The [`crate::rate_cache::RateCache`] and the event heap: both are
//!   derived structures. Restore re-registers every live peer and replays
//!   one cache refresh, which by the cache's ordered-resummation contract
//!   must be a bitwise no-op (a non-empty change set means the snapshot
//!   and the rebuild disagree and restore fails with
//!   [`crate::DesError::Invariant`]). The heap is rebuilt from the
//!   per-peer `comp_stamp`/`comp_time`/`expiry_stamp` bookkeeping: one
//!   entry per armed stamp, keyed at its true deadline. A live run may
//!   hold a slowed completion's key early (a lower bound it re-keys when
//!   the entry surfaces); the dispatched order depends only on the true
//!   `(time, rank, peer, slot)` keys, so the exact rebuild is sound. The
//!   stamp values are preserved, so future arming continues the same
//!   monotone stamp sequence. Aggregate group deadlines are serialized
//!   per group and reinstalled into the group cache's deadline array.
//! * Per-class population counters and rarest-first holder counts: both
//!   are recomputed from the restored slab.
//! * The `BTFLUID_DES_TRACE` debug state: stderr tracing is not part of
//!   the bit-identity contract.
//! * The attached [`btfluid_telemetry::Probe`], which may hold open file
//!   handles. The telemetry *counters* and the sampler phase
//!   (`next_sample`, `last_delta`) **are** serialized, so a run resumed
//!   with a fresh probe attached emits the same trace tail as an
//!   uninterrupted run.
//!
//! ## On-disk format
//!
//! ```text
//! magic "BTFS" | version u32 | payload | fnv1a-64 checksum
//! ```
//!
//! Little-endian throughout; floats are stored as raw IEEE-754 bits so
//! NaN/∞ round-trip exactly. The payload embeds a digest of the full
//! [`DesConfig`] and a fingerprint of the attached hook's
//! [`crate::ScenarioHook::hook_state`]; restore refuses a snapshot whose
//! digests do not match the offered config/hook
//! ([`SnapshotError::ConfigMismatch`] / [`SnapshotError::HookMismatch`]).
//!
//! **Compatibility policy**: the version is bumped whenever the payload
//! layout or any serialized semantic changes; old versions are rejected
//! ([`SnapshotError::UnsupportedVersion`]) rather than migrated —
//! checkpoints are short-lived crash-recovery artifacts, not archives.
//! [`Snapshot::write_file`] writes a sibling temp file and renames it
//! into place, so a crash mid-write never corrupts the previous
//! checkpoint.

use crate::config::{DesConfig, OrderPolicy, SchemeKind};
use crate::hook::ScenarioHook;
use crate::observer::{AbortRecord, ClassStats, PopulationStats, SimOutcome, UserRecord};
use crate::peer::{Peer, Phase};
use btfluid_numkit::series::TimeSeries;
use btfluid_numkit::stats::Welford;
use btfluid_telemetry::Counters;
use btfluid_workload::requests::FileId;
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"BTFS";
/// Snapshot format version of per-peer-scheduling runs (see the module
/// docs for the policy). v2 added the telemetry counters and sampler
/// phase (`next_sample`, `last_delta`) so resumed runs emit the same
/// trace tail as uninterrupted ones.
pub const SNAPSHOT_VERSION: u32 = 2;
/// Snapshot format version of aggregate-scheduling runs: the v2 payload
/// followed by the aggregate section (sampling RNG state, the two
/// aggregate counters, and per-group hazard state plus member order).
/// Per-peer snapshots still encode as v2, byte-identical to previous
/// builds; the bump only applies where the extra section is present.
pub const SNAPSHOT_VERSION_AGG: u32 = 3;

/// Why a snapshot could not be encoded, decoded, or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The file does not start with the `BTFS` magic.
    BadMagic,
    /// The file's format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// The offered [`DesConfig`] does not digest to the value embedded in
    /// the snapshot.
    ConfigMismatch,
    /// The offered hook's [`ScenarioHook::hook_state`] does not digest to
    /// the value embedded in the snapshot (includes offering no hook for
    /// a hooked snapshot and vice versa).
    HookMismatch,
    /// The payload is structurally invalid (truncated, impossible
    /// lengths, inconsistent cross-references).
    Corrupt(String),
    /// An I/O failure while reading or writing the snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: not a btfluid snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "snapshot: unsupported format version {v} (this build reads \
                 {SNAPSHOT_VERSION} and {SNAPSHOT_VERSION_AGG})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot: checksum mismatch"),
            SnapshotError::ConfigMismatch => write!(
                f,
                "snapshot: configuration does not match the one it was taken under"
            ),
            SnapshotError::HookMismatch => write!(
                f,
                "snapshot: scenario hook does not match the one it was taken under"
            ),
            SnapshotError::Corrupt(d) => write!(f, "snapshot: corrupt payload: {d}"),
            SnapshotError::Io(d) => write!(f, "snapshot: {d}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// FNV-1a 64 (checksums and digests; no external deps).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader primitives.

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Corrupt("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a length prefix, refusing counts that cannot possibly fit in
    /// the remaining bytes at `per` bytes each (corrupt-length guard).
    fn len(&mut self, per: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let room = (self.buf.len() - self.pos) / per.max(1);
        if n as usize > room {
            return Err(SnapshotError::Corrupt(format!(
                "length {n} exceeds remaining payload"
            )));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
        }
    }
    fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(
                "trailing bytes after payload".into(),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Digests.

/// FNV-1a digest of the full configuration, over a canonical field
/// encoding. *Every* field participates — resuming is only defined for
/// the exact configuration the snapshot was taken under.
pub fn config_digest(cfg: &DesConfig) -> u64 {
    let mut w = W::default();
    w.f64(cfg.params.mu());
    w.f64(cfg.params.eta());
    w.f64(cfg.params.gamma());
    w.u32(cfg.model.k());
    w.f64(cfg.model.p());
    w.f64(cfg.model.lambda0());
    match cfg.scheme {
        SchemeKind::Mtsd => w.u8(0),
        SchemeKind::Mtcd => w.u8(1),
        SchemeKind::Mfcd => w.u8(2),
        SchemeKind::Cmfsd { rho } => {
            w.u8(3);
            w.f64(rho);
        }
    }
    w.f64(cfg.horizon);
    w.f64(cfg.warmup);
    w.f64(cfg.drain);
    w.u64(cfg.seed);
    match &cfg.adapt {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            w.f64(a.controller.phi_inc);
            w.f64(a.controller.phi_dec);
            w.f64(a.controller.v_inc);
            w.f64(a.controller.v_dec);
            w.u32(a.controller.patience);
            w.f64(a.epoch);
            w.f64(a.cheater_fraction);
        }
    }
    w.u64(cfg.origin_seeds as u64);
    w.bool(cfg.warm_start);
    w.u8(match cfg.order_policy {
        OrderPolicy::Random => 0,
        OrderPolicy::RarestFirst => 1,
    });
    w.opt_f64(cfg.record_every);
    // Placeholder for the retired `exact_rates` flag: always `false`, so
    // checkpoints and bundles written while the flag existed still match.
    w.bool(false);
    w.bool(cfg.checked);
    // Folded in only when set, so every pre-aggregate config digests to
    // the same value as before the field existed (old checkpoints of
    // per-peer runs stay restorable).
    if cfg.aggregate {
        w.u8(0xA6);
    }
    fnv1a(&w.buf)
}

/// FNV-1a fingerprint of a hook's [`ScenarioHook::hook_state`] bytes.
/// "No hook" digests differently from any hook, including one whose
/// state is empty.
pub fn hook_fingerprint(hook: Option<&dyn ScenarioHook>) -> u64 {
    let mut bytes = Vec::new();
    match hook {
        None => bytes.push(0),
        Some(h) => {
            bytes.push(1);
            bytes.extend_from_slice(&h.hook_state());
        }
    }
    fnv1a(&bytes)
}

// ---------------------------------------------------------------------------
// The snapshot itself.

/// A suspended simulation's full mutable state (see the module docs).
///
/// Produced by [`crate::engine::Simulation::snapshot`]; consumed by
/// [`crate::engine::Simulation::restore`] /
/// [`crate::engine::Simulation::restore_with_hook`]. Serializable via
/// [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`] and the atomic
/// file helpers.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) config_digest: u64,
    pub(crate) hook_fp: u64,
    pub(crate) t: f64,
    pub(crate) started: bool,
    /// Stream states in stream order: arrivals, service, scenario.
    pub(crate) rng_states: [[u64; 4]; 3],
    pub(crate) user_counter: u64,
    pub(crate) next_stamp: u64,
    pub(crate) arrival_clock: f64,
    pub(crate) origin_now: u64,
    pub(crate) next_arrival: Option<(f64, Vec<FileId>)>,
    pub(crate) next_epoch: Option<f64>,
    pub(crate) next_abort: Option<f64>,
    pub(crate) next_control: Option<f64>,
    pub(crate) free: Vec<u64>,
    /// Peer slab, tombstones included. `adapt` is always `None` here; the
    /// controllers live in [`Snapshot::adapt_states`] so decoding does not
    /// need a config.
    pub(crate) peers: Vec<Peer>,
    /// Parallel to `peers`: `(rho, above, below)` of each peer's Adapt
    /// controller, if it has one.
    pub(crate) adapt_states: Vec<Option<(f64, u32, u32)>>,
    /// Observer accumulators (without `inflight`/`trajectory`, which are
    /// only populated by `finish`).
    pub(crate) outcome: SimOutcome,
    pub(crate) trajectory: Option<TimeSeries>,
    pub(crate) next_record: f64,
    /// Telemetry counters accumulated so far. Maintained unconditionally
    /// (probe attached or not), so snapshot bytes never depend on
    /// observability settings.
    pub(crate) counters: Counters,
    /// Sampler phase: next simulated time a probe sample is due.
    pub(crate) next_sample: f64,
    /// Mean Adapt Δ observed at the most recent epoch (telemetry only).
    pub(crate) last_delta: f64,
    /// Aggregate-scheduling section, present exactly when the run uses
    /// aggregate mode (and then the file encodes as
    /// [`SNAPSHOT_VERSION_AGG`]).
    pub(crate) agg: Option<AggSnap>,
}

/// Aggregate-mode extension: everything the group cache cannot rebuild
/// from the peer slab. Group *rates* and the integer aggregates are
/// recomputed at restore (and verified against the armed deadlines); the
/// hazard state and the member-list order are not derivable — the order
/// decides which peer a uniform sample index selects — so both travel
/// verbatim.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSnap {
    /// Aggregate-sampling RNG stream state.
    pub(crate) rng_agg: [u64; 4],
    /// One entry per group, in group-id order (length `2·K²`).
    pub(crate) groups: Vec<GroupSnap>,
}

/// One group's serialized hazard state and member order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupSnap {
    pub(crate) target: f64,
    pub(crate) acc: f64,
    pub(crate) anchor: f64,
    pub(crate) deadline: f64,
    pub(crate) stamp: u64,
    /// `(peer slab index, slot)` pairs in sampling order.
    pub(crate) members: Vec<(u32, u32)>,
}

impl Snapshot {
    /// Simulated time at which the snapshot was taken.
    pub fn sim_time(&self) -> f64 {
        self.t
    }

    /// Events dispatched before the snapshot was taken.
    pub fn events(&self) -> u64 {
        self.outcome.events
    }

    /// Encodes to the versioned, checksummed byte format:
    /// [`Self::seal`] of [`Self::encode_body`].
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::seal(self.encode_body())
    }

    /// Encodes everything but the trailing checksum. A caller that keeps
    /// snapshots around and writes few of them (the sweep supervisor)
    /// stores the body and pays for the checksum only at write time.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = W::default();
        w.buf.extend_from_slice(MAGIC);
        w.u32(if self.agg.is_some() {
            SNAPSHOT_VERSION_AGG
        } else {
            SNAPSHOT_VERSION
        });
        w.u64(self.config_digest);
        w.u64(self.hook_fp);
        w.f64(self.t);
        w.bool(self.started);
        for s in &self.rng_states {
            for &word in s {
                w.u64(word);
            }
        }
        w.u64(self.user_counter);
        w.u64(self.next_stamp);
        w.f64(self.arrival_clock);
        w.u64(self.origin_now);
        match &self.next_arrival {
            None => w.u8(0),
            Some((t, files)) => {
                w.u8(1);
                w.f64(*t);
                w.u64(files.len() as u64);
                for &f in files {
                    w.u32(u32::from(f));
                }
            }
        }
        w.opt_f64(self.next_epoch);
        w.opt_f64(self.next_abort);
        w.opt_f64(self.next_control);
        w.u64(self.free.len() as u64);
        for &i in &self.free {
            w.u64(i);
        }
        w.u64(self.peers.len() as u64);
        for p in &self.peers {
            encode_peer(&mut w, p);
        }
        debug_assert_eq!(self.adapt_states.len(), self.peers.len());
        for st in &self.adapt_states {
            match st {
                None => w.u8(0),
                Some((rho, above, below)) => {
                    w.u8(1);
                    w.f64(*rho);
                    w.u32(*above);
                    w.u32(*below);
                }
            }
        }
        encode_outcome(&mut w, &self.outcome);
        match &self.trajectory {
            None => w.u8(0),
            Some(series) => {
                w.u8(1);
                w.u64(series.names().len() as u64);
                for name in series.names() {
                    w.str(name);
                }
                w.f64s(series.times());
                w.f64s(series.raw_values());
            }
        }
        w.f64(self.next_record);
        w.u64(self.counters.events_popped);
        w.u64(self.counters.stale_discards);
        w.u64(self.counters.heap_peak);
        w.u64(self.counters.rate_recomputes);
        w.u64(self.counters.rate_clean_hits);
        w.u64(self.counters.snapshots_taken);
        w.u64(self.counters.snapshot_bytes);
        w.u64(self.counters.snapshot_micros);
        w.f64(self.next_sample);
        w.f64(self.last_delta);
        if let Some(agg) = &self.agg {
            for &word in &agg.rng_agg {
                w.u64(word);
            }
            w.u64(self.counters.agg_rate_updates);
            w.u64(self.counters.agg_samples);
            w.u64(agg.groups.len() as u64);
            for g in &agg.groups {
                w.f64(g.target);
                w.f64(g.acc);
                w.f64(g.anchor);
                w.f64(g.deadline);
                w.u64(g.stamp);
                w.u64(g.members.len() as u64);
                for &(p, s) in &g.members {
                    w.u32(p);
                    w.u32(s);
                }
            }
        }
        w.buf
    }

    /// Appends the FNV-1a checksum to a body from [`Self::encode_body`],
    /// giving exactly the bytes of [`Self::to_bytes`].
    pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let checksum = fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    /// Decodes and validates the byte format (magic, version, checksum,
    /// structural consistency).
    ///
    /// # Errors
    /// Any [`SnapshotError`] variant except the mismatch ones, which are
    /// checked at restore time against the offered config/hook.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Corrupt("file too short".into()));
        }
        if &bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = R::new(&body[4..]);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_AGG {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config_digest = r.u64()?;
        let hook_fp = r.u64()?;
        let t = r.f64()?;
        let started = r.bool()?;
        let mut rng_states = [[0u64; 4]; 3];
        for s in &mut rng_states {
            for word in s.iter_mut() {
                *word = r.u64()?;
            }
        }
        let user_counter = r.u64()?;
        let next_stamp = r.u64()?;
        let arrival_clock = r.f64()?;
        let origin_now = r.u64()?;
        let next_arrival = match r.u8()? {
            0 => None,
            1 => {
                let ta = r.f64()?;
                let n = r.len(4)?;
                let mut files = Vec::with_capacity(n);
                for _ in 0..n {
                    let f = r.u32()?;
                    let f = FileId::try_from(f)
                        .map_err(|_| SnapshotError::Corrupt(format!("file id {f} overflows")))?;
                    files.push(f);
                }
                Some((ta, files))
            }
            b => return Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
        };
        let next_epoch = r.opt_f64()?;
        let next_abort = r.opt_f64()?;
        let next_control = r.opt_f64()?;
        let n_free = r.len(8)?;
        let free: Vec<u64> = (0..n_free).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let n_peers = r.len(1)?;
        let mut peers = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            peers.push(decode_peer(&mut r)?);
        }
        let mut adapt_states = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            adapt_states.push(match r.u8()? {
                0 => None,
                1 => Some((r.f64()?, r.u32()?, r.u32()?)),
                b => return Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
            });
        }
        let outcome = decode_outcome(&mut r)?;
        let trajectory = match r.u8()? {
            0 => None,
            1 => {
                let n_names = r.len(8)?;
                let names: Vec<String> = (0..n_names).map(|_| r.str()).collect::<Result<_, _>>()?;
                let times = r.f64s()?;
                let values = r.f64s()?;
                Some(
                    TimeSeries::from_raw(names, times, values)
                        .map_err(|e| SnapshotError::Corrupt(format!("trajectory: {e}")))?,
                )
            }
            b => return Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
        };
        let next_record = r.f64()?;
        let mut counters = Counters {
            events_popped: r.u64()?,
            stale_discards: r.u64()?,
            heap_peak: r.u64()?,
            rate_recomputes: r.u64()?,
            rate_clean_hits: r.u64()?,
            snapshots_taken: r.u64()?,
            snapshot_bytes: r.u64()?,
            snapshot_micros: r.u64()?,
            ..Counters::default()
        };
        let next_sample = r.f64()?;
        let last_delta = r.f64()?;
        let agg = if version == SNAPSHOT_VERSION_AGG {
            let mut rng_agg = [0u64; 4];
            for word in &mut rng_agg {
                *word = r.u64()?;
            }
            counters.agg_rate_updates = r.u64()?;
            counters.agg_samples = r.u64()?;
            let n_groups = r.len(6 * 8)?;
            let mut groups = Vec::with_capacity(n_groups);
            for _ in 0..n_groups {
                let target = r.f64()?;
                let acc = r.f64()?;
                let anchor = r.f64()?;
                let deadline = r.f64()?;
                let stamp = r.u64()?;
                let n_members = r.len(8)?;
                let members = (0..n_members)
                    .map(|_| Ok((r.u32()?, r.u32()?)))
                    .collect::<Result<_, SnapshotError>>()?;
                groups.push(GroupSnap {
                    target,
                    acc,
                    anchor,
                    deadline,
                    stamp,
                    members,
                });
            }
            Some(AggSnap { rng_agg, groups })
        } else {
            None
        };
        r.done()?;
        for &i in &free {
            let ok = (i as usize) < peers.len() && peers[i as usize].phase == Phase::Departed;
            if !ok {
                return Err(SnapshotError::Corrupt(format!(
                    "free-list entry {i} does not point at a tombstone"
                )));
            }
        }
        Ok(Self {
            config_digest,
            hook_fp,
            t,
            started,
            rng_states,
            user_counter,
            next_stamp,
            arrival_clock,
            origin_now,
            next_arrival,
            next_epoch,
            next_abort,
            next_control,
            free,
            peers,
            adapt_states,
            outcome,
            trajectory,
            next_record,
            counters,
            next_sample,
            last_delta,
            agg,
        })
    }

    /// Writes the snapshot atomically: encodes to a sibling `.tmp` file,
    /// then renames it over `path`. A crash mid-write leaves the previous
    /// checkpoint (if any) intact.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        Self::write_file_bytes(path, &self.to_bytes())
    }

    /// Atomically writes already-encoded snapshot bytes (from
    /// [`Snapshot::to_bytes`]) — same temp-file-and-rename discipline as
    /// [`Snapshot::write_file`], for callers that also need the encoded
    /// length (e.g. telemetry byte accounting) without encoding twice.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write_file_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, bytes).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and decodes a snapshot file.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures, plus everything
    /// [`Snapshot::from_bytes`] reports.
    pub fn read_file(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Component codecs.

fn encode_peer(w: &mut W, p: &Peer) {
    debug_assert!(p.adapt.is_none(), "controllers travel in adapt_states");
    // Per-slot state is written field by field, each field for every slot
    // in turn (the layout predates `Vec<Slot>` and is kept byte for byte).
    let slots = &p.slots;
    w.u64(p.id);
    w.f64(p.arrival);
    w.u64(slots.len() as u64);
    for s in slots {
        w.u32(u32::from(s.file));
    }
    for s in slots {
        w.f64(s.remaining);
    }
    for s in slots {
        w.opt_f64(s.completed_at);
    }
    for pos in 0..slots.len() {
        w.u64(p.order(pos) as u64);
    }
    w.u64(p.cursor as u64);
    match p.phase {
        Phase::Downloading => w.u8(0),
        Phase::SeedingFile(slot) => {
            w.u8(1);
            w.u64(slot as u64);
        }
        Phase::SeedingAll => w.u8(2),
        Phase::Departed => w.u8(3),
    }
    for s in slots {
        w.opt_f64(s.seed_until);
    }
    for s in slots {
        w.f64(s.seed_duration);
    }
    w.opt_f64(p.depart_at);
    w.f64(p.rho);
    w.bool(p.cheater);
    w.f64(p.donated);
    w.f64(p.received_vs);
    w.f64(p.download_time_acc);
    for s in slots {
        w.f64(s.rate);
    }
    for s in slots {
        w.f64(s.vs_rate);
    }
    for s in slots {
        w.f64(s.settled_at);
    }
    w.f64(p.donation_rate);
    w.f64(p.donation_since);
    w.f64(p.active_since);
    for s in slots {
        w.u64(s.comp_stamp);
    }
    for s in slots {
        w.f64(s.comp_time);
    }
    w.u64(p.expiry_stamp);
}

fn decode_peer(r: &mut R) -> Result<Peer, SnapshotError> {
    let id = r.u64()?;
    let arrival = r.f64()?;
    let n = r.len(4)?;
    if n == 0 {
        return Err(SnapshotError::Corrupt("peer with empty request set".into()));
    }
    let mut files = Vec::with_capacity(n);
    for _ in 0..n {
        let f = r.u32()?;
        files.push(
            FileId::try_from(f)
                .map_err(|_| SnapshotError::Corrupt(format!("file id {f} overflows")))?,
        );
    }
    // Every field below is overwritten from the stream, column by column
    // in the order `encode_peer` writes them.
    let mut p = Peer::new(id, arrival, files, (0..n).collect(), 0.0);
    for s in &mut p.slots {
        s.remaining = r.f64()?;
    }
    for s in &mut p.slots {
        s.completed_at = r.opt_f64()?;
    }
    for s in &mut p.slots {
        let o = r.u64()?;
        if o >= n as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "order entry {o} out of range for class {n}"
            )));
        }
        s.order = o as u32;
    }
    p.cursor = r.u64()? as usize;
    p.phase = match r.u8()? {
        0 => Phase::Downloading,
        1 => {
            let slot = r.u64()? as usize;
            if slot >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "seeding slot {slot} out of range for class {n}"
                )));
            }
            Phase::SeedingFile(slot)
        }
        2 => Phase::SeedingAll,
        3 => Phase::Departed,
        b => return Err(SnapshotError::Corrupt(format!("bad phase tag {b}"))),
    };
    for s in &mut p.slots {
        s.seed_until = r.opt_f64()?;
    }
    for s in &mut p.slots {
        s.seed_duration = r.f64()?;
    }
    p.depart_at = r.opt_f64()?;
    p.rho = r.f64()?;
    p.cheater = r.bool()?;
    p.donated = r.f64()?;
    p.received_vs = r.f64()?;
    p.download_time_acc = r.f64()?;
    for s in &mut p.slots {
        s.rate = r.f64()?;
    }
    for s in &mut p.slots {
        s.vs_rate = r.f64()?;
    }
    for s in &mut p.slots {
        s.settled_at = r.f64()?;
    }
    p.donation_rate = r.f64()?;
    p.donation_since = r.f64()?;
    p.active_since = r.f64()?;
    for s in &mut p.slots {
        s.comp_stamp = r.u64()?;
    }
    for s in &mut p.slots {
        s.comp_time = r.f64()?;
    }
    p.expiry_stamp = r.u64()?;
    if p.cursor > n {
        return Err(SnapshotError::Corrupt(format!(
            "cursor {} out of range for class {n}",
            p.cursor
        )));
    }
    Ok(p)
}

fn encode_welford(w: &mut W, s: &Welford) {
    let (n, mean, m2, min, max) = s.raw_parts();
    w.u64(n);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

fn decode_welford(r: &mut R) -> Result<Welford, SnapshotError> {
    let n = r.u64()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    Ok(Welford::from_raw_parts(n, mean, m2, min, max))
}

fn encode_class_stats(w: &mut W, cs: &[ClassStats]) {
    w.u64(cs.len() as u64);
    for c in cs {
        encode_welford(w, &c.download);
        encode_welford(w, &c.online);
        encode_welford(w, &c.rho);
    }
}

fn decode_class_stats(r: &mut R) -> Result<Vec<ClassStats>, SnapshotError> {
    let n = r.len(5 * 8)?;
    (0..n)
        .map(|_| {
            Ok(ClassStats {
                download: decode_welford(r)?,
                online: decode_welford(r)?,
                rho: decode_welford(r)?,
            })
        })
        .collect()
}

fn encode_outcome(w: &mut W, o: &SimOutcome) {
    debug_assert!(
        o.inflight.is_empty() && o.trajectory.is_none() && o.censored == 0,
        "snapshots are taken mid-run, before finish() populates these"
    );
    encode_class_stats(w, &o.classes);
    encode_class_stats(w, &o.obedient);
    encode_class_stats(w, &o.cheaters);
    w.u64(o.records.len() as u64);
    for rec in &o.records {
        w.u64(rec.id);
        w.u64(rec.class as u64);
        w.f64(rec.arrival);
        w.f64(rec.departure);
        w.f64(rec.download_span);
        w.f64(rec.online_fluid);
        w.f64(rec.final_rho);
        w.bool(rec.cheater);
    }
    w.f64s(&o.population.downloader_peer_integral);
    w.f64s(&o.population.download_pair_integral);
    w.f64s(&o.population.seed_pair_integral);
    w.f64(o.population.window);
    w.u64(o.arrivals as u64);
    w.u64(o.aborts.len() as u64);
    for a in &o.aborts {
        w.u64(a.id);
        w.u64(a.class as u64);
        w.f64(a.arrival);
        w.f64(a.time);
        w.u64(a.done as u64);
    }
    w.u64(o.events);
}

fn decode_outcome(r: &mut R) -> Result<SimOutcome, SnapshotError> {
    let classes = decode_class_stats(r)?;
    let obedient = decode_class_stats(r)?;
    let cheaters = decode_class_stats(r)?;
    if obedient.len() != classes.len() || cheaters.len() != classes.len() {
        return Err(SnapshotError::Corrupt(
            "class-stats vectors disagree on K".into(),
        ));
    }
    let n_rec = r.len(6 * 8 + 2)?;
    let mut records = Vec::with_capacity(n_rec);
    for _ in 0..n_rec {
        records.push(UserRecord {
            id: r.u64()?,
            class: r.u64()? as usize,
            arrival: r.f64()?,
            departure: r.f64()?,
            download_span: r.f64()?,
            online_fluid: r.f64()?,
            final_rho: r.f64()?,
            cheater: r.bool()?,
        });
    }
    let population = PopulationStats {
        downloader_peer_integral: r.f64s()?,
        download_pair_integral: r.f64s()?,
        seed_pair_integral: r.f64s()?,
        window: r.f64()?,
    };
    if population.downloader_peer_integral.len() != classes.len()
        || population.download_pair_integral.len() != classes.len()
        || population.seed_pair_integral.len() != classes.len()
    {
        return Err(SnapshotError::Corrupt(
            "population integrals disagree on K".into(),
        ));
    }
    let arrivals = r.u64()? as usize;
    let n_aborts = r.len(3 * 8 + 2)?;
    let mut aborts = Vec::with_capacity(n_aborts);
    for _ in 0..n_aborts {
        aborts.push(AbortRecord {
            id: r.u64()?,
            class: r.u64()? as usize,
            arrival: r.f64()?,
            time: r.f64()?,
            done: r.u64()? as usize,
        });
    }
    let events = r.u64()?;
    Ok(SimOutcome {
        classes,
        obedient,
        cheaters,
        records,
        population,
        censored: 0,
        inflight: Vec::new(),
        arrivals,
        aborts,
        trajectory: None,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesConfig;
    use crate::engine::Simulation;

    fn cfg() -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 7).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg.record_every = Some(50.0);
        cfg
    }

    fn mid_run_snapshot() -> Snapshot {
        let mut sim = Simulation::new(cfg()).unwrap();
        for _ in 0..500 {
            if !sim.step().unwrap() {
                break;
            }
        }
        sim.snapshot()
    }

    #[test]
    fn roundtrip_is_identical_bytes() {
        let snap = mid_run_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, back.to_bytes());
        assert_eq!(snap.sim_time(), back.sim_time());
        assert_eq!(snap.events(), back.events());
    }

    #[test]
    fn sealed_body_is_the_byte_format() {
        let snap = mid_run_snapshot();
        let sealed = Snapshot::seal(snap.encode_body());
        assert_eq!(sealed, snap.to_bytes());
        let back = Snapshot::from_bytes(&sealed).unwrap();
        assert_eq!(back.to_bytes(), sealed);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = mid_run_snapshot().to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut bytes = mid_run_snapshot().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = mid_run_snapshot().to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 20]).is_err());
    }

    #[test]
    fn unsupported_version_rejected() {
        let snap = mid_run_snapshot();
        let mut bytes = snap.to_bytes();
        // Version sits right after the magic; bump it and re-checksum.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn config_digest_sensitivity() {
        let a = config_digest(&cfg());
        let mut other = cfg();
        other.seed += 1;
        assert_ne!(a, config_digest(&other));
        let mut other = cfg();
        other.checked = true;
        assert_ne!(a, config_digest(&other));
        assert_eq!(a, config_digest(&cfg()));
    }

    #[test]
    fn config_digest_is_pinned() {
        // Values written by the engine while `DesConfig` still carried the
        // rate-mode flag; a change here orphans existing checkpoints and
        // repro bundles.
        let base = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 1).unwrap();
        assert_eq!(config_digest(&base), 0xba2d_59b0_f673_79ef);
        let mut agg = base;
        agg.aggregate = true;
        assert_eq!(config_digest(&agg), 0xce88_b0b2_c637_170b);
    }

    #[test]
    fn hook_fingerprint_distinguishes_none_from_stateless() {
        struct Stateless;
        impl ScenarioHook for Stateless {
            fn arrival_rate(&self, _t: f64) -> f64 {
                1.0
            }
            fn arrival_rate_bound(&self) -> f64 {
                1.0
            }
            fn correlation(&self, _t: f64) -> f64 {
                0.5
            }
            fn abort_rate(&self, _t: f64) -> f64 {
                0.0
            }
            fn abort_rate_bound(&self) -> f64 {
                0.0
            }
            fn origin_seeds(&self, _t: f64) -> usize {
                0
            }
            fn tracker_up(&self, _t: f64) -> bool {
                true
            }
            fn next_boundary(&self, _t: f64) -> Option<f64> {
                None
            }
        }
        assert_ne!(hook_fingerprint(None), hook_fingerprint(Some(&Stateless)));
    }

    #[test]
    fn atomic_file_roundtrip() {
        let snap = mid_run_snapshot();
        let dir = std::env::temp_dir().join(format!("btfs-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        snap.write_file(&path).unwrap();
        // The temp file must not linger after the rename.
        assert!(!dir.join("ckpt.snap.tmp").exists());
        let back = Snapshot::read_file(&path).unwrap();
        assert_eq!(snap.to_bytes(), back.to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
