//! Versioned, checksummed engine snapshots for crash-safe runs.
//!
//! A snapshot captures every bit of mutable state a suspended
//! [`crate::engine::Simulation`] needs to continue *exactly* where it
//! stopped: the RNG stream states, the peer slab (tombstones included),
//! the free list, pending event registers, observer accumulators, the
//! in-progress trajectory, and the rate groups' clocks and marks (in
//! aggregate mode, the group hazard state).
//! Run → snapshot → restore → run is bit-identical to an uninterrupted
//! run — the `snapshot_resume` integration test asserts this across every
//! scheme, for both rate modes and the forced-full-recompute test
//! reference. The one encoder, [`crate::engine::Simulation::snapshot_body`],
//! reads the live engine; [`Snapshot`] is the decoded form only.
//!
//! ## What is deliberately *not* serialized
//!
//! * The [`crate::rate_cache::RateCache`]'s aggregates and the event heap:
//!   both are derived. The rate groups' clocks, rates and marks *are*
//!   serialized (one record per occupied group, in `(file, u, w)` order,
//!   members by `(peer, slot)`). Restore re-registers every live peer,
//!   installs those records over the groups registration built, and
//!   replays one cache refresh, which by the cache's ordered-resummation
//!   contract must change no group rate (otherwise restore fails with
//!   [`crate::DesError::Invariant`]). The heap is rebuilt with one entry
//!   per group with a completion due and per armed `expiry_stamp`, each
//!   keyed at its true deadline. A live run may hold a slowed
//!   completion's key early (a lower bound it re-keys when the entry
//!   surfaces); the dispatched order depends only on the true
//!   `(time, rank, peer, slot)` keys, so the exact rebuild is sound. The
//!   stamp counter is preserved, so future arming continues the same
//!   monotone stamp sequence. Aggregate group deadlines are serialized
//!   per group and reinstalled into the group cache's deadline array.
//! * A tombstone's fields: nothing reads a departed peer again, so only
//!   its slab place is written, and it is restored empty.
//! * Per-class population counters and rarest-first holder counts: both
//!   are recomputed from the restored slab.
//! * The attached [`btfluid_telemetry::Probe`], which may hold open file
//!   handles. The telemetry *counters* and the sampler phase
//!   (`next_sample`, `last_delta`) **are** serialized, so a run resumed
//!   with a fresh probe attached emits the same trace tail as an
//!   uninterrupted run.
//!
//! ## On-disk format
//!
//! ```text
//! magic "BTFS" | version u32 | payload | checksum u64
//! ```
//!
//! Little-endian throughout; floats are stored as raw IEEE-754 bits so
//! NaN/∞ round-trip exactly. Each peer is written in one pass: its
//! scalars, then every slot's fields together. The payload ends in a flag
//! byte that says which section follows, the rate-group clocks or the
//! aggregate section; restore checks it against the config's rate mode. The payload also embeds a digest of
//! the full [`DesConfig`] and a fingerprint of the attached hook's
//! [`crate::ScenarioHook::hook_state`]; restore refuses a snapshot whose
//! digests do not match the offered config/hook
//! ([`SnapshotError::ConfigMismatch`] / [`SnapshotError::HookMismatch`]).
//! The [`checksum`] steps over `u64` words (see its docs); the digests
//! keep byte-wise FNV-1a, so their values stay pinned.
//!
//! **Compatibility policy**: the version is bumped whenever the payload
//! layout, the checksum, or any serialized semantic changes; old versions
//! are rejected ([`SnapshotError::UnsupportedVersion`]) rather than
//! migrated — checkpoints are short-lived crash-recovery artifacts, not
//! archives. The hybrid driver's envelope shares the magic, so its version
//! must differ from [`SNAPSHOT_VERSION`]. [`Snapshot::write_file_bytes`]
//! writes a sibling temp file and renames it into place, so a crash
//! mid-write never corrupts the previous checkpoint.

use crate::config::{DesConfig, OrderPolicy, SchemeKind};
use crate::hook::ScenarioHook;
use crate::observer::{AbortRecord, ClassStats, PopulationStats, SimOutcome, UserRecord};
use crate::peer::{Peer, Phase, Slot};
use crate::rate_cache::{Group, Mark};
use btfluid_numkit::series::TimeSeries;
use btfluid_numkit::stats::Welford;
use btfluid_telemetry::Counters;
use btfluid_workload::requests::FileId;
use std::fmt;
use std::path::Path;

/// Leading bytes of every snapshot file, engine and hybrid alike.
pub const MAGIC: &[u8; 4] = b"BTFS";
/// Snapshot format version, for both rate modes (see the module docs for
/// the policy). Versions 2–5 were earlier formats, 6 is the hybrid
/// envelope's and 7 stored per-member rate sums; none is reused.
pub const SNAPSHOT_VERSION: u32 = 8;

/// Why a snapshot could not be encoded, decoded, or applied.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The file does not start with the `BTFS` magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the content.
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
                "snapshot: unsupported format version {v} (this build reads {SNAPSHOT_VERSION})"
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

fn corrupt(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(detail.into())
}

// ---------------------------------------------------------------------------
// FNV-1a 64: byte-wise for the pinned digests, word-wise for the checksum.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The snapshot checksum: FNV-1a over little-endian `u64` words, then the
/// tail bytes one at a time. Each step xors in one word and multiplies by
/// an odd constant, a bijection, so any change confined to one word or
/// one tail byte always changes the result.
pub fn checksum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV_OFFSET, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
    });
    tail.iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Verifies a sealed file (magic, length, trailing [`checksum`]) and
/// returns its body: everything but the checksum.
///
/// # Errors
/// [`SnapshotError::BadMagic`], [`SnapshotError::ChecksumMismatch`], or
/// [`SnapshotError::Corrupt`] for a file too short to hold a header.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(corrupt("file too short"));
    }
    if &bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if checksum(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader primitives.

/// Little-endian byte writer of the snapshot formats.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer holding the magic and `version`, with room for `capacity`
    /// bytes.
    pub fn with_header(version: u32, capacity: usize) -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(capacity),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(version);
        w
    }
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// Writes a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Writes a bool as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes an `f64` as its raw bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
    /// Writes a tag byte, then the value if present.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    /// A length-prefixed float array.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}

/// Little-endian byte reader of the snapshot formats: every read is
/// bounds-checked and fails with [`SnapshotError::Corrupt`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// Checks the magic and returns the format version.
    pub fn header(&mut self) -> Result<u32, SnapshotError> {
        if self.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        self.u32()
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a bool written by [`Writer::bool`].
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a length prefix, refusing counts that cannot possibly fit in
    /// the remaining bytes at `per` bytes each (corrupt-length guard).
    pub fn len(&mut self, per: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let room = (self.buf.len() - self.pos) / per.max(1);
        if n > room as u64 {
            return Err(corrupt(format!("length {n} exceeds remaining payload")));
        }
        Ok(n as usize)
    }
    /// A length-prefixed byte string from [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1)?;
        self.take(n)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }
    /// Reads a value written by [`Writer::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(corrupt(format!("bad option tag {b}"))),
        }
    }
    /// Reads a float array written by [`Writer::f64s`].
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    /// Fails unless every byte has been read.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Digests.

/// FNV-1a digest of the full configuration, over a canonical field
/// encoding. *Every* field participates — resuming is only defined for
/// the exact configuration the snapshot was taken under.
pub fn config_digest(cfg: &DesConfig) -> u64 {
    let mut w = Writer::default();
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
    // the same value as before the field existed.
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
// The decoded snapshot.

/// A suspended simulation's full mutable state (see the module docs), as
/// decoded from the bytes [`crate::engine::Simulation::snapshot_body`]
/// wrote.
///
/// Consumed by [`crate::engine::Simulation::restore`] /
/// [`crate::engine::Simulation::restore_with_hook`]. It keeps the body it
/// was decoded from, so [`Snapshot::to_bytes`] and the file helpers give
/// back exactly the bytes that were read.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The unsealed bytes this snapshot was decoded from.
    body: Vec<u8>,
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
    /// Parallel to `peers`: each peer's Adapt controller state, if it has
    /// one.
    pub(crate) adapt_states: Vec<Option<AdaptState>>,
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
    /// aggregate mode.
    pub(crate) agg: Option<AggSnap>,
    /// The rate groups' clocks and marks (incremental mode; empty under
    /// aggregate mode).
    pub(crate) groups: Vec<Group>,
}

/// An Adapt controller's `(rho, above, below)`, as
/// [`btfluid_core::adapt::AdaptController::raw_state`] gives it.
pub(crate) type AdaptState = (f64, u32, u32);

/// Aggregate-mode section: everything the group cache cannot rebuild
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

    /// The versioned, checksummed byte format: [`Self::seal`] of the body
    /// this snapshot was decoded from.
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::seal(self.body.clone())
    }

    /// Appends the [`checksum`] to a body from
    /// [`crate::engine::Simulation::snapshot_body`], giving the file
    /// format. A caller that keeps snapshots around and writes few of them
    /// (the sweep supervisor) stores the body and pays for the checksum
    /// only at write time.
    pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Decodes and validates the byte format (magic, checksum, version,
    /// structural consistency).
    ///
    /// # Errors
    /// Any [`SnapshotError`] variant except the mismatch ones, which are
    /// checked at restore time against the offered config/hook.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::from_body(unseal(bytes)?)
    }

    /// Decodes an unsealed body (the file format minus its checksum), as
    /// [`Self::from_bytes`] does after verifying the checksum. Callers
    /// that embed a body in a format with its own checksum (the hybrid
    /// envelope) decode it here.
    ///
    /// # Errors
    /// As [`Self::from_bytes`], less the checksum.
    pub fn from_body(body: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(body);
        let version = r.header()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config_digest = r.u64()?;
        let hook_fp = r.u64()?;
        let t = r.f64()?;
        let started = r.bool()?;
        let mut rng_states = [[0u64; 4]; 3];
        for word in rng_states.iter_mut().flatten() {
            *word = r.u64()?;
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
                let files: Vec<FileId> = (0..n)
                    .map(|_| decode_file(&mut r))
                    .collect::<Result<_, _>>()?;
                Some((ta, files))
            }
            b => return Err(corrupt(format!("bad option tag {b}"))),
        };
        let next_epoch = r.opt_f64()?;
        let next_abort = r.opt_f64()?;
        let next_control = r.opt_f64()?;
        let n_free = r.len(8)?;
        let free: Vec<u64> = (0..n_free).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let n_peers = r.len(1)?;
        let mut peers = Vec::with_capacity(n_peers);
        let mut adapt_states = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            let (p, adapt) = decode_peer(&mut r)?;
            peers.push(p);
            adapt_states.push(adapt);
        }
        let outcome = decode_outcome(&mut r)?;
        let trajectory = decode_trajectory(&mut r)?;
        let next_record = r.f64()?;
        let mut counters = Counters::default();
        for v in counters.fields_mut() {
            *v = r.u64()?;
        }
        let next_sample = r.f64()?;
        let last_delta = r.f64()?;
        let aggregate = r.bool()?;
        let groups = if aggregate {
            Vec::new()
        } else {
            decode_group_clocks(&mut r)?
        };
        let agg = if aggregate {
            let mut rng_agg = [0u64; 4];
            for word in &mut rng_agg {
                *word = r.u64()?;
            }
            let n_groups = r.len(6 * 8)?;
            let groups = (0..n_groups)
                .map(|_| {
                    Ok(GroupSnap {
                        target: r.f64()?,
                        acc: r.f64()?,
                        anchor: r.f64()?,
                        deadline: r.f64()?,
                        stamp: r.u64()?,
                        members: {
                            let n = r.len(8)?;
                            (0..n)
                                .map(|_| Ok((r.u32()?, r.u32()?)))
                                .collect::<Result<_, SnapshotError>>()?
                        },
                    })
                })
                .collect::<Result<_, SnapshotError>>()?;
            Some(AggSnap { rng_agg, groups })
        } else {
            None
        };
        r.done()?;
        for &i in &free {
            let ok = (i as usize) < peers.len() && peers[i as usize].phase == Phase::Departed;
            if !ok {
                return Err(corrupt(format!(
                    "free-list entry {i} does not point at a tombstone"
                )));
            }
        }
        // Restore indexes per-file tables by these ids.
        let k = outcome.k();
        let pending = next_arrival.iter().flat_map(|(_, fs)| fs.iter().copied());
        let out_of_range = peers
            .iter()
            .flat_map(Peer::files)
            .chain(pending)
            .find(|&f| usize::from(f) >= k);
        if let Some(f) = out_of_range {
            return Err(corrupt(format!("file id {f} out of range for K = {k}")));
        }
        Ok(Self {
            body: body.to_vec(),
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
            groups,
        })
    }

    /// Writes the snapshot atomically (see [`Self::write_file_bytes`]).
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        Self::write_file_bytes(path, &self.to_bytes())
    }

    /// Atomically writes sealed snapshot bytes: writes a sibling `.tmp`
    /// file, then renames it over `path`. A crash mid-write leaves the
    /// previous checkpoint (if any) intact.
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
// Component codecs. The encoders are called by
// `Simulation::snapshot_body`, which writes the top-level layout that
// `Snapshot::from_body` reads.

fn decode_file(r: &mut Reader) -> Result<FileId, SnapshotError> {
    let f = r.u32()?;
    FileId::try_from(f).map_err(|_| corrupt(format!("file id {f} overflows")))
}

/// Bytes of one encoded slot with both options absent (length guard).
const SLOT_MIN_BYTES: usize = 4 + 4 + 8 + 1 + 1 + 8;

/// Writes one peer in one pass: its scalars, its Adapt controller state,
/// then each slot's fields together, slot `i` with `remaining(i)`.
pub(crate) fn encode_peer(w: &mut Writer, p: &Peer, remaining: impl Fn(usize) -> f64) {
    match p.phase {
        Phase::Downloading => w.u8(0),
        Phase::SeedingFile(slot) => {
            w.u8(1);
            w.u64(slot as u64);
        }
        Phase::SeedingAll => w.u8(2),
        // Nothing reads a tombstone's fields again: only its slab place
        // is written.
        Phase::Departed => return w.u8(3),
    }
    w.u64(p.id);
    w.f64(p.arrival);
    w.u64(p.cursor as u64);
    w.opt_f64(p.depart_at);
    w.f64(p.rho);
    w.bool(p.cheater);
    match p.adapt.as_ref().map(|c| c.raw_state()) {
        None => w.u8(0),
        Some((rho, above, below)) => {
            w.u8(1);
            w.f64(rho);
            w.u32(above);
            w.u32(below);
        }
    }
    w.f64(p.donated);
    w.f64(p.received_vs);
    w.f64(p.download_time_acc);
    w.f64(p.donation_rate);
    w.f64(p.donation_since);
    w.f64(p.active_since);
    w.u64(p.expiry_stamp);
    w.u64(p.slots.len() as u64);
    for (i, s) in p.slots.iter().enumerate() {
        w.u32(u32::from(s.file));
        w.u32(s.order);
        w.f64(remaining(i));
        w.opt_f64(s.completed_at);
        w.opt_f64(s.seed_until);
        w.f64(s.seed_duration);
    }
}

/// Reads one peer written by [`encode_peer`], with its Adapt controller
/// state split out (restoring a controller needs the config).
fn decode_peer(r: &mut Reader) -> Result<(Peer, Option<AdaptState>), SnapshotError> {
    let phase = match r.u8()? {
        0 => Phase::Downloading,
        1 => Phase::SeedingFile(r.u64()? as usize),
        2 => Phase::SeedingAll,
        3 => return Ok((Peer::default(), None)),
        b => return Err(corrupt(format!("bad phase tag {b}"))),
    };
    let id = r.u64()?;
    let arrival = r.f64()?;
    let cursor = r.u64()? as usize;
    let depart_at = r.opt_f64()?;
    let rho = r.f64()?;
    let cheater = r.bool()?;
    let adapt = match r.u8()? {
        0 => None,
        1 => Some((r.f64()?, r.u32()?, r.u32()?)),
        b => return Err(corrupt(format!("bad option tag {b}"))),
    };
    let donated = r.f64()?;
    let received_vs = r.f64()?;
    let download_time_acc = r.f64()?;
    let donation_rate = r.f64()?;
    let donation_since = r.f64()?;
    let active_since = r.f64()?;
    let expiry_stamp = r.u64()?;
    let n = r.len(SLOT_MIN_BYTES)?;
    if n == 0 {
        return Err(corrupt("peer with empty request set"));
    }
    // The download order must be a permutation of the slot indices.
    let mut placed = vec![false; n];
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let file = decode_file(r)?;
        let order = r.u32()?;
        match placed.get_mut(order as usize) {
            Some(seen @ false) => *seen = true,
            _ => {
                return Err(corrupt(format!(
                    "download order entry {order} repeats or is out of range for class {n}"
                )))
            }
        }
        slots.push(Slot {
            file,
            order,
            remaining: r.f64()?,
            completed_at: r.opt_f64()?,
            seed_until: r.opt_f64()?,
            seed_duration: r.f64()?,
        });
    }
    if cursor > n {
        return Err(corrupt(format!(
            "cursor {cursor} out of range for class {n}"
        )));
    }
    if let Phase::SeedingFile(slot) = phase {
        if slot >= n {
            return Err(corrupt(format!(
                "seeding slot {slot} out of range for class {n}"
            )));
        }
    }
    let peer = Peer {
        id,
        arrival,
        slots,
        cursor,
        phase,
        depart_at,
        rho,
        cheater,
        adapt: None,
        donated,
        received_vs,
        download_time_acc,
        donation_rate,
        donation_since,
        active_since,
        expiry_stamp,
    };
    Ok((peer, adapt))
}

/// Bytes of one encoded group with no members (length guard).
const GROUP_MIN_BYTES: usize = 4 + 8 * 8;

/// Writes the rate groups' clocks and marks, in the order given (the
/// cache's canonical order, see `RateCache::group_clocks`).
pub(crate) fn encode_group_clocks(w: &mut Writer, groups: &[Group]) {
    w.u64(groups.len() as u64);
    for g in groups {
        w.u32(g.file);
        for v in [g.u, g.w, g.rate, g.vs_rate, g.clock, g.vs_clock, g.anchor] {
            w.f64(v);
        }
        w.u64(g.heap.len() as u64);
        for m in &g.heap {
            w.u32(m.peer);
            w.u32(m.slot);
            w.f64(m.mark);
            w.f64(m.vs_mark);
        }
    }
}

fn decode_group_clocks(r: &mut Reader) -> Result<Vec<Group>, SnapshotError> {
    let n = r.len(GROUP_MIN_BYTES)?;
    (0..n)
        .map(|_| {
            let file = r.u32()?;
            let mut v = [0.0; 7];
            for x in &mut v {
                *x = r.f64()?;
            }
            let [u, w, rate, vs_rate, clock, vs_clock, anchor] = v;
            let heap = (0..r.len(24)?)
                .map(|_| {
                    Ok(Mark {
                        peer: r.u32()?,
                        slot: r.u32()?,
                        mark: r.f64()?,
                        vs_mark: r.f64()?,
                    })
                })
                .collect::<Result<_, SnapshotError>>()?;
            Ok(Group {
                file,
                u,
                w,
                rate,
                vs_rate,
                clock,
                vs_clock,
                anchor,
                heap,
                ..Group::default()
            })
        })
        .collect()
}

pub(crate) fn encode_trajectory(w: &mut Writer, trajectory: Option<&TimeSeries>) {
    match trajectory {
        None => w.u8(0),
        Some(series) => {
            w.u8(1);
            w.u64(series.names().len() as u64);
            for name in series.names() {
                w.bytes(name.as_bytes());
            }
            w.f64s(series.times());
            w.f64s(series.raw_values());
        }
    }
}

fn decode_trajectory(r: &mut Reader) -> Result<Option<TimeSeries>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n_names = r.len(8)?;
            let names: Vec<String> = (0..n_names).map(|_| r.str()).collect::<Result<_, _>>()?;
            let times = r.f64s()?;
            let values = r.f64s()?;
            TimeSeries::from_raw(names, times, values)
                .map(Some)
                .map_err(|e| corrupt(format!("trajectory: {e}")))
        }
        b => Err(corrupt(format!("bad option tag {b}"))),
    }
}

fn encode_welford(w: &mut Writer, s: &Welford) {
    let (n, mean, m2, min, max) = s.raw_parts();
    w.u64(n);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

fn decode_welford(r: &mut Reader) -> Result<Welford, SnapshotError> {
    let n = r.u64()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    Ok(Welford::from_raw_parts(n, mean, m2, min, max))
}

fn encode_class_stats(w: &mut Writer, cs: &[ClassStats]) {
    w.u64(cs.len() as u64);
    for c in cs {
        encode_welford(w, &c.download);
        encode_welford(w, &c.online);
        encode_welford(w, &c.rho);
    }
}

fn decode_class_stats(r: &mut Reader) -> Result<Vec<ClassStats>, SnapshotError> {
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

pub(crate) fn encode_outcome(w: &mut Writer, o: &SimOutcome) {
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

fn decode_outcome(r: &mut Reader) -> Result<SimOutcome, SnapshotError> {
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
    use crate::DesError;
    use btfluid_telemetry::ScratchDir;

    fn cfg() -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 7).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg.record_every = Some(50.0);
        cfg
    }

    fn mid_run_sim() -> Simulation {
        let mut sim = Simulation::new(cfg()).unwrap();
        for _ in 0..500 {
            if !sim.step().unwrap() {
                break;
            }
        }
        sim
    }

    fn mid_run_snapshot() -> Snapshot {
        mid_run_sim().snapshot()
    }

    /// Decode, restore, re-snapshot: the restored engine writes the bytes
    /// it was restored from, in both rate modes and at several cuts.
    #[test]
    fn roundtrip_is_identical_bytes() {
        let variants = [
            (SchemeKind::Mtcd, true),
            (SchemeKind::Mfcd, true),
            (SchemeKind::Cmfsd { rho: 0.5 }, false),
            (SchemeKind::Mtsd, false),
        ];
        for (scheme, aggregate) in variants {
            for cut in [0, 300, 3_000] {
                let mut cfg = cfg();
                cfg.scheme = scheme;
                cfg.aggregate = aggregate;
                cfg.horizon = 2_000.0;
                let mut sim = Simulation::new(cfg.clone()).unwrap();
                for _ in 0..cut {
                    assert!(sim.step().unwrap(), "{scheme:?}: run ended before {cut}");
                }
                let body = sim.snapshot_body();
                let bytes = Snapshot::seal(body.clone());
                let snap = Snapshot::from_bytes(&bytes).unwrap();
                assert_eq!(snap.to_bytes(), bytes);
                assert_eq!(snap.events(), sim.events());
                let restored = Simulation::restore(cfg, &snap).unwrap();
                assert!(
                    restored.snapshot_body() == body,
                    "{scheme:?} aggregate={aggregate} cut={cut}: re-snapshot differs"
                );
            }
        }
    }

    #[test]
    fn sealed_body_is_the_byte_format() {
        let sim = mid_run_sim();
        let sealed = Snapshot::seal(sim.snapshot_body());
        assert_eq!(sealed, sim.snapshot().to_bytes());
        assert_eq!(unseal(&sealed).unwrap(), &sealed[..sealed.len() - 8]);
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

    /// Every bit of the first and last 64 bytes — the header, the body's
    /// tail bytes past its last whole word, and the checksum itself.
    #[test]
    fn flipped_bit_fails_checksum() {
        let bytes = mid_run_snapshot().to_bytes();
        let body_len = bytes.len() - 8;
        assert_ne!(body_len % 8, 0, "the body should end in tail bytes");
        let edges = (0..64).chain(bytes.len() - 64..bytes.len());
        for at in edges {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let expect = if at < MAGIC.len() {
                    SnapshotError::BadMagic
                } else {
                    SnapshotError::ChecksumMismatch
                };
                assert_eq!(
                    Snapshot::from_bytes(&flipped).unwrap_err(),
                    expect,
                    "byte {at} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn checksum_folds_words_then_tail_bytes() {
        let bytes: Vec<u8> = (0u8..11).collect();
        let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let mut h = (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME);
        for &b in &bytes[8..] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(checksum(&bytes), h);
        assert_eq!(checksum(&[]), FNV_OFFSET);
        assert_eq!(checksum(&bytes[8..]), fnv1a(&bytes[8..]));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = mid_run_snapshot().to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 20]).is_err());
    }

    #[test]
    fn unsupported_version_rejected() {
        // Version sits right after the magic; change it and re-seal. The
        // retired per-peer (2), aggregate (3) and hybrid (4) versions are
        // refused like any other, and so is 7, whose layout is this one's
        // but whose per-member rate sums a restore would not reproduce.
        for version in [2, 3, 4, 7, 99] {
            let mut body = mid_run_sim().snapshot_body();
            body[4..8].copy_from_slice(&u32::to_le_bytes(version));
            assert_eq!(
                Snapshot::from_bytes(&Snapshot::seal(body)).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
    }

    /// Rewrites one live multi-file peer of a mid-run snapshot in place
    /// (same encoded length), re-seals, and returns the decode verdict.
    fn decode_with_peer_rewritten(edit: impl Fn(&mut Peer)) -> Result<Snapshot, SnapshotError> {
        let mut body = mid_run_sim().snapshot_body();
        let snap = Snapshot::from_body(&body).unwrap();
        let peer = snap
            .peers
            .iter()
            .find(|p| p.class() >= 2 && p.phase != Phase::Departed)
            .expect("a live multi-file peer");
        let encoded = |p: &Peer| {
            let mut w = Writer::default();
            encode_peer(&mut w, p, |s| p.slots[s].remaining);
            w.into_bytes()
        };
        let good = encoded(peer);
        let mut edited = peer.clone();
        edit(&mut edited);
        let bad = encoded(&edited);
        let at = body
            .windows(good.len())
            .position(|w| w == good.as_slice())
            .expect("the peer's bytes occur in the body");
        body[at..at + bad.len()].copy_from_slice(&bad);
        Snapshot::from_bytes(&Snapshot::seal(body))
    }

    fn expect_corrupt(verdict: Result<Snapshot, SnapshotError>, what: &str) {
        match verdict {
            Err(SnapshotError::Corrupt(d)) => assert!(d.contains(what), "{d}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|s| s.events())),
        }
    }

    /// Group-clock records must name the slab's rate groups and their
    /// members exactly; restore refuses anything else as corrupt.
    #[test]
    fn group_clocks_must_match_the_slab() {
        let restore = |edit: &dyn Fn(&mut Vec<Mark>)| {
            let mut snap = mid_run_snapshot();
            let group = snap
                .groups
                .iter_mut()
                .find(|g| g.heap.len() >= 2)
                .expect("a rate group with two members");
            edit(&mut group.heap);
            match Simulation::restore(cfg(), &snap) {
                Err(DesError::Snapshot(SnapshotError::Corrupt(d))) => d,
                other => panic!("expected Corrupt, got {:?}", other.map(|s| s.events())),
            }
        };
        for slot in [1, 10, u32::MAX] {
            let misplaced = restore(&|h| h[0].slot = h[0].slot.wrapping_add(slot));
            assert!(misplaced.contains("no download"), "{misplaced}");
        }
        let twice = restore(&|h| h[1] = h[0]);
        assert!(twice.contains("no download"), "{twice}");
        let short = restore(&|h| {
            h.pop();
        });
        assert!(short.contains("marks for"), "{short}");
        let records = |edit: &dyn Fn(&mut Vec<Group>)| {
            let mut snap = mid_run_snapshot();
            edit(&mut snap.groups);
            match Simulation::restore(cfg(), &snap) {
                Err(DesError::Snapshot(SnapshotError::Corrupt(d))) => d,
                other => panic!("expected Corrupt, got {:?}", other.map(|s| s.events())),
            }
        };
        let missing = records(&|g| {
            g.pop();
        });
        assert!(missing.contains("rate groups"), "{missing}");
        // Group A named twice and group B never: the count still matches.
        let repeated = records(&|g| g[1] = g[0].clone());
        assert!(repeated.contains("out of order or repeated"), "{repeated}");
        let swapped = records(&|g| g.swap(0, 1));
        assert!(swapped.contains("out of order or repeated"), "{swapped}");
    }

    /// A download order that repeats a slot is refused at decode, not left
    /// for restore to misreport as rate-cache drift.
    #[test]
    fn non_permutation_order_is_corrupt() {
        let verdict = decode_with_peer_rewritten(|p| {
            for s in &mut p.slots {
                s.order = 0;
            }
        });
        expect_corrupt(verdict, "download order");
    }

    /// A file id past K is refused at decode; restore would index its
    /// per-file tables with it and panic.
    #[test]
    fn out_of_range_file_id_is_corrupt() {
        let verdict = decode_with_peer_rewritten(|p| p.slots[0].file = 200);
        expect_corrupt(verdict, "file id 200");
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
        let dir = ScratchDir::new("snap-test").unwrap();
        let path = dir.join("ckpt.snap");
        snap.write_file(&path).unwrap();
        // The temp file must not linger after the rename.
        assert!(!dir.join("ckpt.snap.tmp").exists());
        let back = Snapshot::read_file(&path).unwrap();
        assert_eq!(snap.to_bytes(), back.to_bytes());
    }
}
