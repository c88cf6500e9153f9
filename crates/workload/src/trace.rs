//! Arrival traces: the concrete input stream of the simulator.
//!
//! An [`ArrivalTrace`] is the realized workload — a time-ordered list of
//! entering users with their request sets — generated by combining the
//! Poisson visitor process with the request sampler, then dropping empty
//! visits (class-0 users never enter).
//!
//! ## The `btfluid-trace-arrivals v1` codec
//!
//! Traces round-trip through two equivalent on-disk forms (DESIGN.md §18):
//!
//! **CSV** — a `#`-prefixed format header, a column header, then one
//! record per arrival:
//!
//! ```text
//! # btfluid-trace-arrivals v1 k=10 horizon=4000 n=2
//! time,class,files
//! 0.53,2,0;3
//! 1.25,1,7
//! ```
//!
//! The `files` field is a `;`-joined list of file ids. Its alphabet is
//! restricted to ASCII digits and `;` — ids are numeric by construction
//! (`FileId`), so no quoting is needed and none is permitted; this is the
//! escaping contract that keeps the comma-separated record unambiguous.
//! The importer enforces it byte-for-byte.
//!
//! **JSONL** — a header object, then one object per arrival:
//!
//! ```text
//! {"format":"btfluid-trace-arrivals","version":1,"k":10,"horizon":4000,"n":2}
//! {"t":0.53,"files":[0,3]}
//! {"t":1.25,"files":[7]}
//! ```
//!
//! The importer reads each line with the workspace's one JSON parser
//! (`btfluid_telemetry::json`, depth-bounded) and then holds it to the
//! exporter's shape: exact keys in order, digits-only integers, no
//! escapes.
//!
//! Both exporters render `f64`s with Rust's shortest-round-trip `Display`,
//! so `from_csv(to_csv(t)) == t` holds *bit-exactly* for every finite
//! time. Both importers validate everything the constructor validates —
//! sorted times inside the half-open `[0, horizon)`, non-empty strictly
//! increasing file sets, ids `< K` — and return typed [`NumError`]s on
//! malformed input; they never panic.
//!
//! ## Fitting
//!
//! [`fit_model`] inverts the generative model by moment matching: the mean
//! number of files per entrant `M(p) = K·p / (1 − (1−p)^K)` is strictly
//! increasing in `p` (from 1 at `p → 0` to `K` at `p = 1`), so the
//! empirical mean pins `p̂` by bisection, and the empirical entering rate
//! divided by the entering fraction `1 − (1−p̂)^K` recovers `λ̂₀`.

use crate::arrivals::PoissonProcess;
use crate::correlation::CorrelationModel;
use crate::requests::{FileId, RequestSampler};
use btfluid_numkit::rng::RngCore;
use btfluid_numkit::roots::{bisect, RootOptions};
use btfluid_numkit::NumError;
use btfluid_telemetry::json::Json;

/// Format name carried by the codec headers.
pub const TRACE_FORMAT: &str = "btfluid-trace-arrivals";

/// Codec version this build emits and accepts.
pub const TRACE_VERSION: u32 = 1;

/// Error context of the JSONL importer.
const JSONL: &str = "ArrivalTrace::from_jsonl";

/// One entering user.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time.
    pub time: f64,
    /// Files requested (non-empty, sorted, unique).
    pub files: Vec<FileId>,
}

impl Arrival {
    /// The user's class (number of files requested).
    pub fn class(&self) -> usize {
        self.files.len()
    }
}

/// A realized workload over a finite horizon.
///
/// Every constructor ([`Self::generate`], [`Self::from_parts`],
/// [`Self::from_csv`], [`Self::from_jsonl`]) enforces the trace
/// invariants, so holders of an `ArrivalTrace` may rely on them: times
/// are finite, non-decreasing and inside `[0, horizon)`; file sets are
/// non-empty, strictly increasing, and every id is `< K`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
    horizon: f64,
    k: u32,
}

/// Typed constructor error helper.
fn invalid(what: &'static str, detail: String) -> NumError {
    NumError::InvalidInput { what, detail }
}

impl ArrivalTrace {
    /// Generates a trace: visitors arrive Poisson(`λ₀`) over `[0, horizon)`,
    /// each samples a request set, and empty sets are dropped.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] for a non-positive horizon.
    /// A `p = 0` model yields an empty (but valid) trace.
    pub fn generate<R: RngCore + ?Sized>(
        model: &CorrelationModel,
        horizon: f64,
        rng: &mut R,
    ) -> Result<Self, NumError> {
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(invalid(
                "ArrivalTrace::generate",
                format!("horizon must be finite and > 0, got {horizon}"),
            ));
        }
        let process = PoissonProcess::new(model.lambda0())?;
        let sampler = RequestSampler::new(*model);
        let mut arrivals = Vec::new();
        for time in process.times_until(rng, horizon) {
            let files = sampler.sample_visitor(rng);
            if !files.is_empty() {
                arrivals.push(Arrival { time, files });
            }
        }
        // The sampler upholds the invariants by construction; routing
        // through the validating constructor keeps a single enforcement
        // point for everything the importers promise.
        Self::from_parts(arrivals, horizon, model.k())
    }

    /// Builds a trace from raw parts, validating every invariant the type
    /// promises. This is the single enforcement point shared by
    /// [`Self::generate`] and both importers.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when:
    /// * `horizon` is not finite and positive, or `k` is 0 or exceeds the
    ///   `FileId` domain (65 536);
    /// * any arrival time is non-finite, negative, `>= horizon`, or
    ///   decreases relative to its predecessor;
    /// * any file set is empty, not strictly increasing (duplicates), or
    ///   contains an id `>= k` — the input that used to drive
    ///   [`Self::class_counts`] out of bounds.
    pub fn from_parts(arrivals: Vec<Arrival>, horizon: f64, k: u32) -> Result<Self, NumError> {
        const WHAT: &str = "ArrivalTrace::from_parts";
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(invalid(
                WHAT,
                format!("horizon must be finite and > 0, got {horizon}"),
            ));
        }
        if k == 0 {
            return Err(invalid(WHAT, "k must be >= 1".into()));
        }
        if k > FileId::MAX as u32 + 1 {
            return Err(invalid(
                WHAT,
                format!(
                    "k = {k} exceeds the FileId domain ({})",
                    FileId::MAX as u32 + 1
                ),
            ));
        }
        let mut prev = 0.0f64;
        for (idx, a) in arrivals.iter().enumerate() {
            if !a.time.is_finite() || a.time < 0.0 {
                return Err(invalid(
                    WHAT,
                    format!("arrival {idx}: time {} is not finite and >= 0", a.time),
                ));
            }
            if a.time >= horizon {
                return Err(invalid(
                    WHAT,
                    format!(
                        "arrival {idx}: time {} outside the half-open horizon [0, {horizon})",
                        a.time
                    ),
                ));
            }
            if a.time < prev {
                return Err(invalid(
                    WHAT,
                    format!(
                        "arrival {idx}: time {} < predecessor {prev} (unsorted)",
                        a.time
                    ),
                ));
            }
            prev = a.time;
            if a.files.is_empty() {
                return Err(invalid(
                    WHAT,
                    format!("arrival {idx}: empty file set (class-0 users never enter)"),
                ));
            }
            for w in a.files.windows(2) {
                if w[0] >= w[1] {
                    return Err(invalid(
                        WHAT,
                        format!(
                            "arrival {idx}: file ids must be strictly increasing, got {} then {}",
                            w[0], w[1]
                        ),
                    ));
                }
            }
            let last = *a.files.last().expect("checked non-empty") as u32;
            if last >= k {
                return Err(invalid(
                    WHAT,
                    format!("arrival {idx}: file id {last} >= k = {k}"),
                ));
            }
        }
        Ok(Self {
            arrivals,
            horizon,
            k,
        })
    }

    /// The entering users, time-ordered.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of entering users.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether nobody entered.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The generation horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Number of files `K` in the generating model.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Empirical per-class counts (index 0 ↔ class 1, length `K`).
    ///
    /// Cannot go out of bounds: every constructor validates
    /// `class <= K` (file ids are unique and `< K`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.k as usize];
        for a in &self.arrivals {
            counts[a.class() - 1] += 1;
        }
        counts
    }

    /// Empirical entering rate (users per time unit) over the half-open
    /// generation window `[0, horizon)` — the same convention as
    /// [`Self::generate`] and [`fit_model`].
    pub fn empirical_rate(&self) -> f64 {
        self.arrivals.len() as f64 / self.horizon
    }

    /// Total files requested across all arrivals.
    pub fn total_files(&self) -> usize {
        self.arrivals.iter().map(Arrival::class).sum()
    }

    /// Mean number of files per entrant (the moment [`fit_model`] matches).
    ///
    /// Returns `NaN` for an empty trace.
    pub fn mean_files_per_entrant(&self) -> f64 {
        self.total_files() as f64 / self.arrivals.len() as f64
    }

    /// Renders the trace in the v1 CSV form (module docs): format header,
    /// `time,class,files` column header, then one record per arrival with
    /// `;`-joined file ids. Times use shortest-round-trip formatting, so
    /// [`Self::from_csv`] recovers them bit-exactly.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "# {TRACE_FORMAT} v{TRACE_VERSION} k={} horizon={} n={}\n",
            self.k,
            self.horizon,
            self.arrivals.len()
        );
        out.push_str("time,class,files\n");
        for a in &self.arrivals {
            let files: Vec<String> = a.files.iter().map(|f| f.to_string()).collect();
            out.push_str(&format!("{},{},{}\n", a.time, a.class(), files.join(";")));
        }
        out
    }

    /// Parses the v1 CSV form, validating both the syntax (header, field
    /// counts, the digits-and-`;` alphabet of the `files` field, the
    /// declared record count `n`) and, via [`Self::from_parts`], every
    /// trace invariant.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] — with the offending 1-based
    /// line number where applicable — on any malformed input. Never
    /// panics.
    pub fn from_csv(text: &str) -> Result<Self, NumError> {
        const WHAT: &str = "ArrivalTrace::from_csv";
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| invalid(WHAT, "empty input (missing format header)".into()))?;
        let (k, horizon, n) = parse_csv_header(header)?;
        let columns = lines
            .next()
            .ok_or_else(|| invalid(WHAT, "missing column header".into()))?;
        if columns != "time,class,files" {
            return Err(invalid(
                WHAT,
                format!("line 2: expected column header 'time,class,files', got {columns:?}"),
            ));
        }
        let mut arrivals = Vec::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 3;
            if line.is_empty() {
                return Err(invalid(WHAT, format!("line {lineno}: empty record")));
            }
            let mut fields = line.split(',');
            let (time_s, class_s, files_s) =
                match (fields.next(), fields.next(), fields.next(), fields.next()) {
                    (Some(t), Some(c), Some(f), None) => (t, c, f),
                    _ => {
                        return Err(invalid(
                            WHAT,
                            format!("line {lineno}: expected exactly 3 comma-separated fields"),
                        ))
                    }
                };
            let time: f64 = time_s.parse().map_err(|_| {
                invalid(WHAT, format!("line {lineno}: unparseable time {time_s:?}"))
            })?;
            let class = parse_decimal::<usize>(class_s).ok_or_else(|| {
                invalid(
                    WHAT,
                    format!("line {lineno}: unparseable class {class_s:?}"),
                )
            })?;
            let mut files = Vec::new();
            for id_s in files_s.split(';') {
                let id = parse_decimal::<FileId>(id_s).ok_or_else(|| {
                    invalid(
                        WHAT,
                        format!(
                            "line {lineno}: file id {id_s:?} violates the digits-and-';' contract"
                        ),
                    )
                })?;
                files.push(id);
            }
            if files.len() != class {
                return Err(invalid(
                    WHAT,
                    format!(
                        "line {lineno}: class {class} disagrees with {} file ids",
                        files.len()
                    ),
                ));
            }
            arrivals.push(Arrival { time, files });
        }
        if arrivals.len() != n {
            return Err(invalid(
                WHAT,
                format!("header declares n={n} records, found {}", arrivals.len()),
            ));
        }
        Self::from_parts(arrivals, horizon, k)
    }

    /// Renders the trace in the v1 JSONL form (module docs): a header
    /// object followed by one `{"t":…,"files":[…]}` object per arrival.
    /// Bit-exact round trip with [`Self::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"format\":\"{TRACE_FORMAT}\",\"version\":{TRACE_VERSION},\"k\":{},\"horizon\":{},\"n\":{}}}\n",
            self.k,
            self.horizon,
            self.arrivals.len()
        );
        for a in &self.arrivals {
            let ids: Vec<String> = a.files.iter().map(|f| f.to_string()).collect();
            out.push_str(&format!(
                "{{\"t\":{},\"files\":[{}]}}\n",
                a.time,
                ids.join(",")
            ));
        }
        out
    }

    /// Parses the v1 JSONL form, one line at a time through the shared
    /// JSON parser (so JSON whitespace between tokens is fine), but
    /// requires the exporter's exact keys in its order, digits-only
    /// integer tokens, and unescaped strings; everything else — record
    /// count, numeric ranges, trace invariants — is validated exactly as
    /// in [`Self::from_csv`].
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] with the offending 1-based line
    /// number on any malformed input. Never panics.
    pub fn from_jsonl(text: &str) -> Result<Self, NumError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| invalid(JSONL, "empty input (missing header object)".into()))?;
        let [format, version, k, horizon, n] =
            jsonl_object(header, 1, ["format", "version", "k", "horizon", "n"])?;
        if format.as_str() != Some(TRACE_FORMAT) {
            let detail = format!("line 1: unrecognized format {format}");
            return Err(invalid(JSONL, detail));
        }
        let version: u32 = jsonl_num(&version, "version", 1, parse_decimal)?;
        if version != TRACE_VERSION {
            let detail = format!(
                "line 1: unsupported trace version {version} (this build reads v{TRACE_VERSION})"
            );
            return Err(invalid(JSONL, detail));
        }
        let float = |tok: &str| tok.parse().ok();
        let k: u32 = jsonl_num(&k, "k", 1, parse_decimal)?;
        let horizon: f64 = jsonl_num(&horizon, "horizon", 1, float)?;
        let n: usize = jsonl_num(&n, "n", 1, parse_decimal)?;
        let mut arrivals = Vec::new();
        for (lineno, line) in (2..).zip(lines) {
            let [t, files] = jsonl_object(line, lineno, ["t", "files"])?;
            let ids = files.as_arr().ok_or_else(|| {
                invalid(
                    JSONL,
                    format!("line {lineno}: files {files} is not an array"),
                )
            })?;
            arrivals.push(Arrival {
                time: jsonl_num(&t, "t", lineno, float)?,
                files: ids
                    .iter()
                    .map(|id| jsonl_num(id, "file id", lineno, parse_decimal))
                    .collect::<Result<_, _>>()?,
            });
        }
        if arrivals.len() != n {
            return Err(invalid(
                JSONL,
                format!("header declares n={n} records, found {}", arrivals.len()),
            ));
        }
        Self::from_parts(arrivals, horizon, k)
    }
}

/// Strict decimal parser: ASCII digits only (no sign, no whitespace), so
/// the codec's textual contract is enforced byte-for-byte; overflow is
/// rejected by the underlying `FromStr`.
fn parse_decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Parses `# btfluid-trace-arrivals v1 k=K horizon=H n=N`.
fn parse_csv_header(line: &str) -> Result<(u32, f64, usize), NumError> {
    const WHAT: &str = "ArrivalTrace::from_csv";
    let fail = |detail: String| invalid(WHAT, detail);
    let rest = line.strip_prefix("# ").ok_or_else(|| {
        fail(format!(
            "line 1: expected '# {TRACE_FORMAT} …', got {line:?}"
        ))
    })?;
    let mut tokens = rest.split_ascii_whitespace();
    if tokens.next() != Some(TRACE_FORMAT) {
        return Err(fail(format!("line 1: unrecognized format in {line:?}")));
    }
    let version = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(parse_decimal::<u32>)
        .ok_or_else(|| fail(format!("line 1: missing or malformed version in {line:?}")))?;
    if version != TRACE_VERSION {
        return Err(fail(format!(
            "unsupported trace version {version} (this build reads v{TRACE_VERSION})"
        )));
    }
    let mut field = |key: &str| {
        tokens
            .next()
            .and_then(|t| t.strip_prefix(key))
            .and_then(|t| t.strip_prefix('='))
            .map(str::to_owned)
            .ok_or_else(|| fail(format!("line 1: missing '{key}=' field in {line:?}")))
    };
    let k_s = field("k")?;
    let horizon_s = field("horizon")?;
    let n_s = field("n")?;
    let k =
        parse_decimal::<u32>(&k_s).ok_or_else(|| fail(format!("line 1: unparseable k {k_s:?}")))?;
    let horizon: f64 = horizon_s
        .parse()
        .map_err(|_| fail(format!("line 1: unparseable horizon {horizon_s:?}")))?;
    let n = parse_decimal::<usize>(&n_s)
        .ok_or_else(|| fail(format!("line 1: unparseable n {n_s:?}")))?;
    Ok((k, horizon, n))
}

/// Parses one JSONL line as an object whose keys are exactly `keys`, in
/// that order, and returns their values. As in the CSV form, nothing in
/// the v1 JSONL form needs escaping and no escape is permitted, so every
/// key and the format name match the exporter's bytes exactly.
fn jsonl_object<const N: usize>(
    line: &str,
    lineno: usize,
    keys: [&str; N],
) -> Result<[Json; N], NumError> {
    let fail = |detail: String| invalid(JSONL, format!("line {lineno}: {detail}"));
    if line.contains('\\') {
        return Err(fail("escape sequences are not part of the format".into()));
    }
    let members = match Json::parse(line).map_err(fail)? {
        Json::Obj(members) if members.iter().map(|(k, _)| k.as_str()).eq(keys) => members,
        _ => {
            return Err(fail(format!(
                "expected an object with keys {keys:?}, in order"
            )))
        }
    };
    let values: Vec<Json> = members.into_iter().map(|(_, v)| v).collect();
    Ok(values.try_into().expect("the key check fixed the length"))
}

/// A JSONL number, its raw token read by `parse` (the CSV form's
/// digits-only [`parse_decimal`] for integers).
fn jsonl_num<T>(
    v: &Json,
    name: &str,
    lineno: usize,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, NumError> {
    let parsed = match v {
        Json::Num(tok) => parse(tok),
        _ => None,
    };
    parsed.ok_or_else(|| invalid(JSONL, format!("line {lineno}: unparseable {name} {v}")))
}

/// Mean files per entrant under the correlation model:
/// `M(p) = K·p / (1 − (1−p)^K)`, strictly increasing from 1 (`p → 0`)
/// to `K` (`p = 1`).
fn mean_files(k: u32, p: f64) -> f64 {
    k as f64 * p / entering_fraction(k, p)
}

/// Probability a visitor enters: `1 − (1−p)^K`, computed in log space for
/// accuracy at small `p`.
fn entering_fraction(k: u32, p: f64) -> f64 {
    -f64::exp_m1(k as f64 * f64::ln_1p(-p))
}

/// Recovers a [`CorrelationModel`] from a trace by moment matching
/// (module docs): `p̂` from the empirical mean files per entrant via
/// bisection on the strictly monotone `M(p)`, then
/// `λ̂₀ = empirical_rate / (1 − (1−p̂)^K)`. Both moments use the same
/// half-open `[0, horizon)` window as [`ArrivalTrace::generate`].
///
/// Conventions at the identifiability edges:
/// * `K = 1` — every entrant is class 1 and only the product `λ₀·p` is
///   observable; the fit pins `p̂ = 1`, `λ̂₀ = empirical_rate`.
/// * all arrivals class `K` — `p̂ = 1` exactly.
///
/// # Errors
/// Returns [`NumError::InvalidInput`] for an empty trace (no rate
/// information) or a `K ≥ 2` trace whose arrivals are all class 1
/// (`p` is unidentifiable: any `p → 0` with `λ₀ → ∞` fits).
pub fn fit_model(trace: &ArrivalTrace) -> Result<CorrelationModel, NumError> {
    const WHAT: &str = "fit_model";
    if trace.is_empty() {
        return Err(invalid(
            WHAT,
            "empty trace: the entering rate carries no information".into(),
        ));
    }
    let k = trace.k();
    let rate = trace.empirical_rate();
    if k == 1 {
        return CorrelationModel::new(1, 1.0, rate);
    }
    let m_hat = trace.mean_files_per_entrant();
    if m_hat <= 1.0 + 1e-9 {
        return Err(invalid(
            WHAT,
            format!(
                "all {} arrivals are class 1: p is unidentifiable (p → 0 fits arbitrarily well)",
                trace.len()
            ),
        ));
    }
    let p_hat = if m_hat >= k as f64 - 1e-9 {
        1.0
    } else {
        // Bracket downward: M(lo) → 1 < m_hat as lo → 0, M(1) = K > m_hat.
        let objective = |p: f64| mean_files(k, p) - m_hat;
        let mut lo = 1e-4;
        while objective(lo) >= 0.0 && lo > 1e-300 {
            lo /= 2.0;
        }
        bisect(objective, lo, 1.0, RootOptions::default())?.x
    };
    let lambda0 = rate / entering_fraction(k, p_hat);
    CorrelationModel::new(k, p_hat, lambda0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_numkit::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn model(p: f64) -> CorrelationModel {
        CorrelationModel::new(10, p, 2.0).unwrap()
    }

    #[test]
    fn horizon_validation() {
        let mut r = rng(1);
        assert!(ArrivalTrace::generate(&model(0.5), 0.0, &mut r).is_err());
        assert!(ArrivalTrace::generate(&model(0.5), -1.0, &mut r).is_err());
        assert!(ArrivalTrace::generate(&model(0.5), f64::INFINITY, &mut r).is_err());
    }

    #[test]
    fn arrivals_are_ordered_and_nonempty() {
        let mut r = rng(2);
        let t = ArrivalTrace::generate(&model(0.5), 500.0, &mut r).unwrap();
        assert!(!t.is_empty());
        assert!(t.arrivals().windows(2).all(|w| w[0].time <= w[1].time));
        assert!(t.arrivals().iter().all(|a| !a.files.is_empty()));
    }

    #[test]
    fn empirical_rate_matches_entering_rate() {
        let m = model(0.3);
        let mut r = rng(3);
        let t = ArrivalTrace::generate(&m, 20_000.0, &mut r).unwrap();
        let expect = m.entering_rate();
        let got = t.empirical_rate();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "rate {got} vs expected {expect}"
        );
    }

    #[test]
    fn class_counts_match_model_proportions() {
        let m = model(0.2);
        let mut r = rng(4);
        let t = ArrivalTrace::generate(&m, 50_000.0, &mut r).unwrap();
        let counts = t.class_counts();
        let total: usize = counts.iter().sum();
        assert_eq!(total, t.len());
        // Class 1 and class 2 have substantial mass at p = 0.2.
        let frac1 = counts[0] as f64 / total as f64;
        let expect1 = m.class_rate(1) / m.entering_rate();
        assert!(
            (frac1 - expect1).abs() < 0.02,
            "class-1 fraction {frac1} vs {expect1}"
        );
    }

    #[test]
    fn p_zero_trace_is_empty() {
        let mut r = rng(5);
        let t = ArrivalTrace::generate(&model(0.0), 1000.0, &mut r).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.total_files(), 0);
        assert_eq!(t.empirical_rate(), 0.0);
    }

    #[test]
    fn total_files_consistent_with_classes() {
        let mut r = rng(6);
        let t = ArrivalTrace::generate(&model(0.6), 1000.0, &mut r).unwrap();
        let from_counts: usize = t
            .class_counts()
            .iter()
            .enumerate()
            .map(|(idx, &c)| (idx + 1) * c)
            .sum();
        assert_eq!(from_counts, t.total_files());
    }

    #[test]
    fn csv_shape() {
        let mut r = rng(7);
        let t = ArrivalTrace::generate(&model(0.9), 10.0, &mut r).unwrap();
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(
            header.starts_with(&format!("# {TRACE_FORMAT} v{TRACE_VERSION} ")),
            "header {header:?}"
        );
        assert_eq!(lines.next(), Some("time,class,files"));
        assert_eq!(csv.lines().count(), t.len() + 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model(0.4);
        let t1 = ArrivalTrace::generate(&m, 100.0, &mut rng(42)).unwrap();
        let t2 = ArrivalTrace::generate(&m, 100.0, &mut rng(42)).unwrap();
        assert_eq!(t1, t2);
    }

    // ---- half-open horizon boundary (satellite audit) ----

    #[test]
    fn horizon_is_half_open() {
        // Many short windows: no generated time ever lands at or past the
        // horizon, and all are non-negative.
        for seed in 0..50 {
            let t = ArrivalTrace::generate(&model(0.8), 3.0, &mut rng(seed)).unwrap();
            for a in t.arrivals() {
                assert!(
                    (0.0..3.0).contains(&a.time),
                    "seed {seed}: time {} escapes [0, 3)",
                    a.time
                );
            }
        }
        // The constructor rejects a time exactly at the horizon.
        let at_edge = vec![Arrival {
            time: 3.0,
            files: vec![0],
        }];
        assert!(ArrivalTrace::from_parts(at_edge, 3.0, 10).is_err());
    }

    // ---- from_parts validation (satellite: class_counts OOB fix) ----

    #[test]
    fn from_parts_rejects_class_above_k() {
        // Regression: a trace whose arrival requests more files than K used
        // to panic inside class_counts (counts[class - 1] out of bounds).
        // The validating constructor now rejects it with a typed error.
        let oversized = vec![Arrival {
            time: 1.0,
            files: (0..5).collect(),
        }];
        let err = ArrivalTrace::from_parts(oversized, 10.0, 3).unwrap_err();
        assert!(matches!(err, NumError::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn from_parts_rejects_invariant_violations() {
        let ok = |time, files: Vec<FileId>| Arrival { time, files };
        // Unsorted times.
        let unsorted = vec![ok(2.0, vec![0]), ok(1.0, vec![1])];
        assert!(ArrivalTrace::from_parts(unsorted, 10.0, 5).is_err());
        // Empty file set.
        assert!(ArrivalTrace::from_parts(vec![ok(1.0, vec![])], 10.0, 5).is_err());
        // Duplicate (non-increasing) ids.
        assert!(ArrivalTrace::from_parts(vec![ok(1.0, vec![2, 2])], 10.0, 5).is_err());
        // Id >= k.
        assert!(ArrivalTrace::from_parts(vec![ok(1.0, vec![5])], 10.0, 5).is_err());
        // Negative / non-finite times.
        assert!(ArrivalTrace::from_parts(vec![ok(-1.0, vec![0])], 10.0, 5).is_err());
        assert!(ArrivalTrace::from_parts(vec![ok(f64::NAN, vec![0])], 10.0, 5).is_err());
        // Degenerate geometry.
        assert!(ArrivalTrace::from_parts(vec![], 0.0, 5).is_err());
        assert!(ArrivalTrace::from_parts(vec![], 10.0, 0).is_err());
        // A valid trace still builds (ties in time are allowed).
        let fine = vec![ok(1.0, vec![0, 3]), ok(1.0, vec![4])];
        let t = ArrivalTrace::from_parts(fine, 10.0, 5).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.class_counts(), vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn imported_class_above_k_yields_typed_error_not_panic() {
        // The same regression through the import surface that makes it
        // reachable in practice.
        let csv = "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\n\
                   time,class,files\n\
                   1.5,4,0;1;2;3\n";
        let err = ArrivalTrace::from_csv(csv).unwrap_err();
        assert!(matches!(err, NumError::InvalidInput { .. }), "{err:?}");
    }

    // ---- codec round trips ----

    #[test]
    fn csv_round_trip_is_bit_exact() {
        let t = ArrivalTrace::generate(&model(0.4), 500.0, &mut rng(9)).unwrap();
        assert!(!t.is_empty());
        let back = ArrivalTrace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(back, t);
        // Times are recovered bit-for-bit, not just approximately.
        for (a, b) in t.arrivals().iter().zip(back.arrivals()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        let t = ArrivalTrace::generate(&model(0.7), 300.0, &mut rng(10)).unwrap();
        let back = ArrivalTrace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);
        for (a, b) in t.arrivals().iter().zip(back.arrivals()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = ArrivalTrace::from_parts(vec![], 42.5, 7).unwrap();
        assert_eq!(ArrivalTrace::from_csv(&t.to_csv()).unwrap(), t);
        assert_eq!(ArrivalTrace::from_jsonl(&t.to_jsonl()).unwrap(), t);
    }

    #[test]
    fn importers_reject_malformed_input() {
        let cases: &[&str] = &[
            "",
            "garbage\ntime,class,files\n",
            "# btfluid-trace-arrivals v2 k=3 horizon=10 n=0\ntime,class,files\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\ntime,class,files\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=0\ntime,class,files\n1.0,1,0\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\ntime,class,files\n1.0,2,0\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\ntime,class,files\n1.0,1,0,9\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\ntime,class,files\nNaT,1,0\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=10 n=1\ntime,class,files\n1.0,1,+2\n",
            "# btfluid-trace-arrivals v1 k=0 horizon=10 n=0\ntime,class,files\n",
            "# btfluid-trace-arrivals v1 k=3 horizon=nope n=0\ntime,class,files\n",
        ];
        for case in cases {
            assert!(
                ArrivalTrace::from_csv(case).is_err(),
                "accepted malformed CSV {case:?}"
            );
        }
        let jsonl_cases: &[&str] = &[
            "",
            "{\"format\":\"other\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":0}\n",
            "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":1}\n",
            "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":1}\n{\"t\":1.0,\"files\":[]}\n",
            "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":1}\n{\"t\":1.0,\"files\":[0]} x\n",
        ];
        for case in jsonl_cases {
            assert!(
                ArrivalTrace::from_jsonl(case).is_err(),
                "accepted malformed JSONL {case:?}"
            );
        }
    }

    #[test]
    fn jsonl_header_keys_are_exact() {
        let ok = "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":0}\n";
        assert!(ArrivalTrace::from_jsonl(ok).is_ok());
        let cases: &[&str] = &[
            // reordered keys
            "{\"version\":1,\"format\":\"btfluid-trace-arrivals\",\"k\":3,\"horizon\":10,\"n\":0}\n",
            // an extra key
            "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":0,\"x\":1}\n",
            // a duplicate key
            "{\"format\":\"btfluid-trace-arrivals\",\"version\":1,\"k\":3,\"k\":3,\"horizon\":10,\"n\":0}\n",
            // an escaped spelling of the format name
            "{\"format\":\"btfluid-trace-\\u0061rrivals\",\"version\":1,\"k\":3,\"horizon\":10,\"n\":0}\n",
        ];
        for case in cases {
            let err = ArrivalTrace::from_jsonl(case).expect_err(case).to_string();
            assert!(err.contains("line 1:"), "{err}");
        }
        let record = |r: &str| format!("{}{r}\n", ok.replace("\"n\":0", "\"n\":1"));
        assert!(ArrivalTrace::from_jsonl(&record("{\"t\":1.5,\"files\":[0,2]}")).is_ok());
        for r in [
            "{\"files\":[0],\"t\":1.5}",
            "{\"t\":1.5,\"files\":[0],\"files\":[0]}",
            "{\"t\":1.5,\"files\":[+0]}",
            "{\"t\":1.5,\"files\":[1.0]}",
            "{\"t\":.5,\"files\":[0]}",
            "{\"t\":1.5,\"files\":[[0]]}",
        ] {
            let err = ArrivalTrace::from_jsonl(&record(r))
                .expect_err(r)
                .to_string();
            assert!(err.contains("line 2:"), "{r}: {err}");
        }
        // The depth bound keeps hostile nesting a typed error.
        let deep = record(&format!("{{\"t\":1.5,\"files\":{}", "[".repeat(100_000)));
        assert!(ArrivalTrace::from_jsonl(&deep).is_err());
    }

    // ---- fitting ----

    #[test]
    fn fit_recovers_generating_parameters() {
        let m = CorrelationModel::new(10, 0.4, 0.8).unwrap();
        let t = ArrivalTrace::generate(&m, 30_000.0, &mut rng(11)).unwrap();
        let fit = fit_model(&t).unwrap();
        assert!(
            (fit.p() - m.p()).abs() / m.p() < 0.05,
            "p {} vs {}",
            fit.p(),
            m.p()
        );
        assert!(
            (fit.lambda0() - m.lambda0()).abs() / m.lambda0() < 0.05,
            "λ₀ {} vs {}",
            fit.lambda0(),
            m.lambda0()
        );
    }

    #[test]
    fn fit_edge_cases() {
        // Empty trace: no information.
        let empty = ArrivalTrace::from_parts(vec![], 10.0, 5).unwrap();
        assert!(fit_model(&empty).is_err());
        // All class-1 under K >= 2: p unidentifiable.
        let ones = (0..20)
            .map(|i| Arrival {
                time: i as f64 * 0.1,
                files: vec![0],
            })
            .collect();
        let t = ArrivalTrace::from_parts(ones, 10.0, 5).unwrap();
        assert!(fit_model(&t).is_err());
        // K = 1: convention p = 1, λ₀ = empirical rate.
        let ones = (0..20)
            .map(|i| Arrival {
                time: i as f64 * 0.1,
                files: vec![0],
            })
            .collect();
        let t = ArrivalTrace::from_parts(ones, 10.0, 1).unwrap();
        let fit = fit_model(&t).unwrap();
        assert_eq!(fit.p(), 1.0);
        assert!((fit.lambda0() - 2.0).abs() < 1e-12);
        // All class-K: p = 1 exactly.
        let full = (0..20)
            .map(|i| Arrival {
                time: i as f64 * 0.1,
                files: (0..3).collect(),
            })
            .collect();
        let t = ArrivalTrace::from_parts(full, 10.0, 3).unwrap();
        assert_eq!(fit_model(&t).unwrap().p(), 1.0);
    }

    #[test]
    fn fit_rate_uses_the_half_open_window() {
        // empirical_rate and fit_model share the [0, horizon) convention:
        // λ̂₀ · (1 − (1−p̂)^K) equals len/horizon exactly.
        let t = ArrivalTrace::generate(&model(0.5), 5_000.0, &mut rng(12)).unwrap();
        let fit = fit_model(&t).unwrap();
        assert!(
            (fit.entering_rate() - t.empirical_rate()).abs() < 1e-9,
            "entering rate {} vs empirical {}",
            fit.entering_rate(),
            t.empirical_rate()
        );
    }

    // ---- property: round trip over arbitrary valid traces ----

    fn arrival_strategy(k: u16, horizon: f64) -> impl Strategy<Value = Arrival> {
        (0.0..horizon, prop::collection::vec(0..k, 1..=k as usize)).prop_map(|(time, mut ids)| {
            ids.sort_unstable();
            ids.dedup();
            Arrival { time, files: ids }
        })
    }

    proptest! {
        #[test]
        fn prop_codec_round_trips_exactly(
            mut arrivals in prop::collection::vec(arrival_strategy(6, 100.0), 0..40),
        ) {
            arrivals.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));
            let t = ArrivalTrace::from_parts(arrivals, 100.0, 6).expect("valid parts");
            let csv = ArrivalTrace::from_csv(&t.to_csv()).expect("csv round trip");
            prop_assert_eq!(&csv, &t);
            let jsonl = ArrivalTrace::from_jsonl(&t.to_jsonl()).expect("jsonl round trip");
            prop_assert_eq!(&jsonl, &t);
            for (a, b) in t.arrivals().iter().zip(csv.arrivals()) {
                prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
            }
        }
    }
}
