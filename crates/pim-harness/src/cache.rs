//! The persistent, content-addressed unit-result cache behind incremental sweeps.
//!
//! Design-tradeoff studies are re-run endlessly with small deltas: one axis widened,
//! one fraction nudged, one new scenario added to the batch. The determinism contract
//! (a unit's output is a pure function of scenario name, resolved seed and grid
//! index — never of thread count or claim order) makes every unit result safely
//! cacheable, so a warm `run --all` collapses to assembly plus I/O.
//!
//! ## Key derivation
//!
//! Each cacheable plan unit carries a [`UnitKey`] naming everything its output
//! depends on: the cache schema version, the scenario name, a **config fingerprint**
//! (the stable hash of the scenario's canonical config JSON — the spec rendering for
//! spec-defined scenarios, the `params()` serialization for builtins), the scenario's
//! resolved seed, and the unit's grid/replication indices. An entry is addressed by
//! the stable 128-bit digest of all those fields, so any single-field edit — an axis
//! value, a fraction, a model family, a seed — addresses different entries and a
//! stale result can never be served. Constants compiled into the models themselves
//! are *not* part of the key; a semantic model change must bump
//! [`CACHE_SCHEMA_VERSION`], which invalidates every prior entry at once.
//!
//! ## On-disk format and concurrency
//!
//! Entries are **frames** appended to **segments**, `<root>/units/<seq>.pack`. Each
//! [`UnitCache`] handle is one writer: its first store creates a segment of its own
//! (`create_new` on the next free number) and each store appends one frame with one
//! `write`. A frame is a 24-byte header (magic `PIMF`, little-endian `u128` digest
//! and `u32` length) and the JSON document `{cache_schema, key, checksum, payload}`,
//! `checksum` hashing the payload's canonical JSON. Handles find frames through an
//! in-memory index built at open and extended by a refresh before each executor
//! call's lookups, so processes sharing a directory see each other's units. Reads
//! verify schema, key echo and checksum; a complete frame failing one is corrupt,
//! and its unit is recomputed and appended again. A frame cut short by a crash and a vanished
//! segment read as absent. Later frames for a digest supersede earlier ones.

use crate::scenario::SeedPolicy;
use desim::par::unpoisoned;
use desim::stablehash::{stable_hash_hex, StableHasher};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the cache entry format *and* of the semantic contract between unit
/// keys and model code. Bump on any change that alters unit outputs without being
/// visible in scenario configs (model constants, stream derivations, entry shape);
/// the version participates in every [`UnitKey`] digest, so old entries become
/// unreachable rather than wrong. v3: `figure6` and `validation` units return the
/// test-system time alone. v4: entries moved from one file per unit to segments.
pub const CACHE_SCHEMA_VERSION: u32 = 4;

/// Name of the cache-format marker file at the cache root.
const FORMAT_FILE: &str = "cache-format.json";
/// Subdirectory holding the segments.
const UNITS_DIR: &str = "units";
const FRAME_MAGIC: &[u8; 4] = b"PIMF";
const HEADER_LEN: usize = 24;
/// An index location: the frame's segment number over its offset in the low 36
/// bits (a writer moves on to a fresh segment at 64 GiB).
const OFFSET_BITS: u32 = 36;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// Wrap an I/O error with the operation and the offending path — every filesystem
/// touch in the cache and the artifact writer reports through this, so a failure
/// deep in a parallel batch still names exactly what could not be done where.
pub fn io_err(op: &str, path: &Path, e: &io::Error) -> String {
    format!("cannot {op} {}: {e}", path.display())
}

/// Probe that `dir` exists (creating it if needed) and is writable, by writing and
/// removing a marker file. Called before a batch touches any unit so an unwritable
/// `--out`/`--cache` directory fails fast instead of erroring mid-run.
pub(crate) fn ensure_writable_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, &e))?;
    let probe = dir.join(format!(".pim-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe").map_err(|e| io_err("write to directory", dir, &e))?;
    // A concurrent gc or clear may have swept the probe already.
    remove_if_present("remove probe file", &probe)
}

/// The complete identity of one cacheable unit of work.
///
/// Two units with equal keys are guaranteed (by the determinism contract) to produce
/// byte-identical payloads; two units differing in any field produce different
/// digests and therefore different cache entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitKey {
    /// [`CACHE_SCHEMA_VERSION`] at write time.
    pub cache_schema: u32,
    /// Scenario name (registry identity).
    pub scenario: String,
    /// Stable hex digest of the scenario's canonical config JSON (spec rendering or
    /// builtin `params()` serialization).
    pub fingerprint: String,
    /// The scenario's resolved seed (derived from the batch base seed and the name,
    /// or a spec's fixed seed) — the root of every stream the unit draws from.
    pub seed: u64,
    /// Flattened grid-point index within the scenario's plan.
    pub grid_index: u64,
    /// Replication index within the grid point (0 for unreplicated scenarios).
    pub replication_index: u64,
}

impl UnitKey {
    /// The raw 128-bit content digest over every field. This is the value frame
    /// headers and the index carry, and — via [`desim::stablehash::shard_index`]
    /// — the key space `run --shard I/N` partitions, so it must stay a pure,
    /// platform-stable function of the fields.
    pub fn digest_u128(&self) -> u128 {
        let mut h = StableHasher::new();
        h.write_u32(self.cache_schema);
        h.write_str(&self.scenario);
        h.write_str(&self.fingerprint);
        h.write_u64(self.seed);
        h.write_u64(self.grid_index);
        h.write_u64(self.replication_index);
        h.finish()
    }

    /// The content address: [`UnitKey::digest_u128`] as 32 hex characters, as shard
    /// partial artifacts and messages print it.
    pub fn digest(&self) -> String {
        format!("{:032x}", self.digest_u128())
    }
}

/// Precomputes the per-scenario parts of [`UnitKey`]s so a plan with thousands of
/// units fingerprints its config exactly once.
#[derive(Debug, Clone)]
pub struct UnitKeyer {
    scenario: String,
    fingerprint: String,
    seed: u64,
}

impl UnitKeyer {
    /// A keyer for `scenario` whose units all share `config` (canonicalized and
    /// fingerprinted here) and the scenario's resolved `seed`.
    pub fn new(scenario: &str, config: &Value, seed: u64) -> UnitKeyer {
        UnitKeyer {
            scenario: scenario.to_string(),
            fingerprint: fingerprint_value(config),
            seed,
        }
    }

    /// Convenience constructor for builtins: fingerprint the scenario's `params()`
    /// and resolve the seed from the batch policy.
    pub(crate) fn for_scenario(
        scenario: &dyn crate::scenario::Scenario,
        seeds: &SeedPolicy,
    ) -> UnitKeyer {
        UnitKeyer::new(
            scenario.name(),
            &scenario.params(),
            seeds.scenario_seed(scenario.name()),
        )
    }

    /// The key of one unit.
    pub fn key(&self, grid_index: usize, replication_index: usize) -> UnitKey {
        UnitKey {
            cache_schema: CACHE_SCHEMA_VERSION,
            scenario: self.scenario.clone(),
            fingerprint: self.fingerprint.clone(),
            seed: self.seed,
            grid_index: grid_index as u64,
            replication_index: replication_index as u64,
        }
    }
}

/// Fingerprint a config tree: the stable hash of its canonical (compact) JSON.
pub(crate) fn fingerprint_value(config: &Value) -> String {
    // audit:allow(unwrap-in-library): the vendored JSON writer is total — to_string returns Ok unconditionally
    let json = serde_json::to_string(config).expect("value serialization is infallible");
    stable_hash_hex(&json)
}

/// How one unit's execution interacted with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// No disk cache configured; the unit ran.
    Uncached,
    /// Served from a verified cache entry; the unit closure never ran.
    Hit,
    /// No entry existed; the unit ran and its result was stored.
    Miss,
    /// A complete entry failed verification (bit-flipped, stale shape, filed under
    /// another digest); the unit re-ran and its result was stored again.
    Recomputed,
}

/// Per-scenario cache accounting, reported in the batch manifest (schema v2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounts {
    /// Units served from verified cache entries.
    pub hits: u64,
    /// Units computed because no entry existed.
    pub misses: u64,
    /// Units recomputed after evicting a corrupt or stale entry.
    pub recomputed: u64,
}

impl CacheCounts {
    /// Fold one unit's event into the counts (uncached units are not counted).
    pub fn record(&mut self, event: CacheEvent) {
        match event {
            CacheEvent::Uncached => {}
            CacheEvent::Hit => self.hits += 1,
            CacheEvent::Miss => self.misses += 1,
            CacheEvent::Recomputed => self.recomputed += 1,
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug)]
pub enum CacheLookup {
    /// Entry verified; here is its payload.
    Hit(Value),
    /// No complete frame for the key, or its segment vanished.
    Miss,
    /// A complete frame failed verification and left the index.
    Corrupt,
}

/// A handle to an open cache directory: one writer, and an index of its segments.
#[derive(Debug)]
pub struct UnitCache {
    root: PathBuf,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Bytes indexed so far, by segment sequence number.
    segments: BTreeMap<u64, u64>,
    index: Index,
    /// This handle's segment, until an append fails or a gc or clear removes it.
    writer: Option<(u64, File)>,
}

/// Digest → location: 256 sorted vectors, by the digest's top byte, of (low 64 bits,
/// location). 16 bytes an entry, and a growing shard reallocates alone, so the index
/// never holds two copies of itself. Digests sharing a slot: the loser misses.
#[derive(Debug, Default)]
struct Index(Vec<Vec<(u64, u64)>>);

impl Index {
    fn find(&mut self, digest: u128) -> (&mut Vec<(u64, u64)>, Result<usize, usize>) {
        self.0.resize_with(256, Vec::new);
        let shard = &mut self.0[(digest >> 120) as usize];
        let at = shard.binary_search_by_key(&(digest as u64), |e| e.0);
        (shard, at)
    }

    fn insert(&mut self, digest: u128, seq: u64, offset: u64) {
        let location = seq << OFFSET_BITS | offset;
        match self.find(digest) {
            (shard, Ok(at)) => shard[at].1 = location,
            (shard, Err(at)) => {
                // Grow by an eighth, not by doubling: this is the per-entry memory.
                if shard.len() == shard.capacity() {
                    shard.reserve_exact(shard.len() / 8 + 4);
                }
                shard.insert(at, (digest as u64, location));
            }
        }
    }
}

/// The exact content of a compatible cache-format marker file.
fn format_marker() -> String {
    format!("{{\"format\": \"pim-unit-cache\", \"cache_schema\": {CACHE_SCHEMA_VERSION}}}\n")
}

/// Whether `root` has a format marker; an incompatible one is an error.
fn check_marker(root: &Path, advice: &str) -> Result<bool, String> {
    let path = root.join(FORMAT_FILE);
    let found = match std::fs::read_to_string(&path) {
        Ok(found) => found,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(io_err("read cache format marker", &path, &e)),
    };
    let expected = format_marker();
    if found != expected {
        let (dir, found, expected) = (root.display(), found.trim(), expected.trim());
        return Err(format!(
            "cache directory {dir} was written by an incompatible version \
             (found {found}, expected {expected}); {advice}"
        ));
    }
    Ok(true)
}

fn segment_path(root: &Path, seq: u64) -> PathBuf {
    root.join(UNITS_DIR).join(format!("{seq:08}.pack"))
}

/// The segment numbers (ascending) in `root`'s `units/`, every file there, and
/// how many are not segments (temp files, entries of older formats). An error when
/// `root` is missing: most likely a mistyped path, not an empty cache.
fn list_units(root: &Path) -> Result<(Vec<u64>, Vec<PathBuf>, u64), String> {
    std::fs::metadata(root).map_err(|e| io_err("access cache directory", root, &e))?;
    let units = root.join(UNITS_DIR);
    let (mut seqs, mut files, mut strays) = (Vec::new(), Vec::new(), 0);
    let listing = std::fs::read_dir(&units).and_then(|dir| dir.collect::<io::Result<Vec<_>>>());
    let listing = match listing {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((seqs, files, strays)),
        listing => listing.map_err(|e| io_err("read cache directory", &units, &e))?,
    };
    for entry in listing {
        let (name, path) = (entry.file_name(), entry.path());
        let stem = name.to_str().and_then(|n| n.strip_suffix(".pack"));
        // Only names `segment_path` writes: no sign, no other padding.
        match stem.and_then(|s| s.parse().ok().filter(|seq| format!("{seq:08}") == s)) {
            Some(seq) => seqs.push(seq),
            None if path.is_dir() => continue,
            None => strays += 1,
        }
        files.push(path);
    }
    seqs.sort_unstable();
    Ok((seqs, files, strays))
}

/// Create a segment under the first free sequence number from `seq` on.
fn create_segment(root: &Path, mut seq: u64) -> Result<(u64, File), String> {
    loop {
        let path = segment_path(root, seq);
        match File::options().append(true).create_new(true).open(&path) {
            Ok(file) => return Ok((seq, file)),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => seq += 1,
            Err(e) => return Err(io_err("create cache segment", &path, &e)),
        }
    }
}

fn encode_frame(digest: u128, text: &str) -> Result<Vec<u8>, String> {
    let len = u32::try_from(text.len()).map_err(|_| format!("cache entry {digest:x} too large"))?;
    let (digest, len) = (digest.to_le_bytes(), len.to_le_bytes());
    Ok([&FRAME_MAGIC[..], &digest, &len, text.as_bytes()].concat())
}

/// The digest and document length a frame header holds.
fn parse_header(header: &[u8; HEADER_LEN]) -> Option<(u128, u64)> {
    let digest = u128::from_le_bytes(header[4..20].try_into().ok()?);
    let len = u64::from(u32::from_le_bytes(header[20..].try_into().ok()?));
    Some((digest, len)).filter(|_| header.starts_with(FRAME_MAGIC))
}

/// Pass each complete frame of the segment at `path` from offset `at` on to `f`,
/// and return the offset after the last; a torn frame or a bad header ends it.
fn walk(path: &Path, mut at: u64, mut f: impl FnMut(u128, Range<u64>, String)) -> io::Result<u64> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(len.saturating_sub(at).min(1 << 16) as usize, file);
    reader.seek(SeekFrom::Start(at))?;
    let mut header = [0u8; HEADER_LEN];
    while at < len && reader.read_exact(&mut header).is_ok() {
        let Some((digest, body)) = parse_header(&header) else {
            break;
        };
        let (end, mut text) = (at + HEADER_LEN as u64 + body, Vec::new());
        if end > len || (&mut reader).take(body).read_to_end(&mut text).ok() != Some(body as usize)
        {
            break;
        }
        f(digest, at..end, String::from_utf8_lossy(&text).into_owned());
        at = end;
    }
    Ok(at)
}

impl UnitCache {
    /// Open (creating if absent) the cache at `root` and index its segments.
    ///
    /// Fails fast — with the offending path in the message — when the directory
    /// cannot be created or written, or when it carries a different cache format
    /// version (run `pim-tradeoffs cache clear` to discard it).
    pub fn open(root: &Path) -> Result<UnitCache, String> {
        ensure_writable_dir(&root.join(UNITS_DIR))?;
        let advice = format!("run `pim-tradeoffs cache clear {}`", root.display());
        if !check_marker(root, &(advice + " to reset it"))? {
            // Temp file + rename: a concurrent opener must never read a torn marker.
            static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
            let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = root.join(format!(".tmp-{}-{n}", std::process::id()));
            let path = root.join(FORMAT_FILE);
            std::fs::write(&tmp, format_marker())
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| io_err("publish cache format marker", &path, &e))?;
        }
        let cache = UnitCache {
            root: root.into(),
            state: Mutex::default(),
        };
        cache.refresh();
        Ok(cache)
    }

    /// Index the segments other writers created or grew since this handle last
    /// looked. [`crate::exec::UnitPool`] calls this once per call with units to
    /// look up, so a daemon and a CLI sharing a directory see each other's units.
    pub(crate) fn refresh(&self) {
        let mut guard = unpoisoned(self.state.lock());
        let state = &mut *guard;
        // An unreadable directory reads as empty. A segment no longer listed was
        // removed by a gc or clear: forget it (its number may come back), and if it
        // was this handle's, the next store starts a fresh one.
        let seqs = list_units(&self.root).map_or_else(|_| Vec::new(), |listed| listed.0);
        state.segments.retain(|seq, _| seqs.contains(seq));
        if state.writer.as_ref().is_some_and(|w| !seqs.contains(&w.0)) {
            state.writer = None;
        }
        for &seq in &seqs {
            let (index, indexed) = (&mut state.index, state.segments.entry(seq).or_default());
            let path = segment_path(&self.root, seq);
            if std::fs::metadata(&path).is_ok_and(|meta| meta.len() > *indexed) {
                let walked = walk(&path, *indexed, |d, r, _| index.insert(d, seq, r.start));
                *indexed = walked.unwrap_or(*indexed);
            }
        }
    }

    /// Look up `key`, verifying schema, key echo and checksum; a corrupt frame
    /// leaves the index. A vanished or unreadable segment, a torn frame and a
    /// header of another digest (a shared slot, a name reused after a clear) miss.
    pub fn load(&self, key: &UnitKey) -> CacheLookup {
        let digest = key.digest_u128();
        let location = match unpoisoned(self.state.lock()).index.find(digest) {
            (shard, Ok(at)) => shard[at].1,
            _ => return CacheLookup::Miss,
        };
        let read = || {
            let mut file = File::open(segment_path(&self.root, location >> OFFSET_BITS)).ok()?;
            let mut header = [0u8; HEADER_LEN];
            file.seek(SeekFrom::Start(location & OFFSET_MASK)).ok()?;
            file.read_exact(&mut header).ok()?;
            let (_, len) = parse_header(&header).filter(|h| h.0 == digest)?;
            let mut body = Vec::new();
            file.take(len).read_to_end(&mut body).ok()?;
            (body.len() as u64 == len).then(|| String::from_utf8_lossy(&body).into_owned())
        };
        match read().map(|text| verify_entry(&text).filter(|(embedded, _)| embedded == key)) {
            None => CacheLookup::Miss,
            Some(Some((_, payload))) => CacheLookup::Hit(payload),
            Some(None) => {
                self.evict(key);
                CacheLookup::Corrupt
            }
        }
    }

    /// Append `payload` under `key` to this handle's segment, as one frame.
    ///
    /// Payloads containing non-finite floats are **not stored**: JSON would render
    /// `NaN`/`±∞` as `null` and a warm run would decode a different value than the
    /// cold run computed. Such units stay uncached and recompute every run.
    pub fn store(&self, key: &UnitKey, payload: &Value) -> Result<(), String> {
        if !json_round_trips(payload) {
            return Ok(());
        }
        let json = |value: &Value| serde_json::to_string(value).map_err(|e| e.to_string());
        let (key_json, payload) = (json(&key.to_value())?, json(payload)?);
        let entry = format!(
            "{{\"cache_schema\":{CACHE_SCHEMA_VERSION},\"key\":{key_json},\"checksum\":\"{}\",\
             \"payload\":{payload}}}\n",
            stable_hash_hex(&payload),
        );
        self.append(key.digest_u128(), &entry)
    }

    /// Append one frame and index it, creating the segment at the first append and
    /// after a failed one (frames after a torn one would be unreachable).
    fn append(&self, digest: u128, text: &str) -> Result<(), String> {
        let frame = encode_frame(digest, text)?;
        let mut guard = unpoisoned(self.state.lock());
        let state = &mut *guard;
        let (seq, file) = match &mut state.writer {
            Some((seq, file)) if state.segments[&*seq] <= OFFSET_MASK => (*seq, file),
            writer => {
                let next = state.segments.keys().last().map_or(1, |seq| seq + 1);
                let (seq, file) = create_segment(&self.root, next)?;
                state.segments.insert(seq, 0);
                (seq, &mut writer.insert((seq, file)).1)
            }
        };
        let offset = state.segments[&seq];
        match file.write(&frame) {
            Ok(n) if n == frame.len() => {
                state.index.insert(digest, seq, offset);
                state.segments.insert(seq, offset + n as u64);
                Ok(())
            }
            failed => {
                state.writer = None;
                let short = |n| io::Error::other(format!("wrote {n} of {} bytes", frame.len()));
                let (e, path) = (
                    failed.map_or_else(|e| e, short),
                    segment_path(&self.root, seq),
                );
                Err(io_err("append to cache segment", &path, &e))
            }
        }
    }

    /// Drop `key` from the index: the next lookup misses, and the recomputed unit
    /// is appended as a fresh frame.
    pub fn evict(&self, key: &UnitKey) {
        if let (shard, Ok(at)) = unpoisoned(self.state.lock()).index.find(key.digest_u128()) {
            shard.remove(at);
        }
    }
}

/// True when `value` survives a JSON round trip losslessly (see
/// [`UnitCache::store`]). The executor's warm in-memory result map applies the
/// same admission rule, so memory and disk agree on which payloads are servable.
pub(crate) fn json_round_trips(value: &Value) -> bool {
    match value {
        Value::F64(x) => x.is_finite(),
        Value::Seq(items) => items.iter().all(json_round_trips),
        Value::Map(entries) => entries.iter().all(|(_, v)| json_round_trips(v)),
        _ => true,
    }
}

/// Parse one entry document and verify its schema and checksum, returning the
/// embedded key (callers check it is the one they expect) and the payload.
fn verify_entry(text: &str) -> Option<(UnitKey, Value)> {
    let doc = serde_json::value_from_str(text).ok()?;
    if doc.get("cache_schema")?.as_f64()? != f64::from(CACHE_SCHEMA_VERSION) {
        return None;
    }
    let embedded = UnitKey::from_value(doc.get("key")?).ok()?;
    let payload = doc.get("payload")?;
    let checksum = stable_hash_hex(&serde_json::to_string(payload).ok()?);
    match doc.get("checksum")? {
        Value::Str(s) if *s == checksum => Some((embedded, payload.clone())),
        _ => None,
    }
}

// Maintenance: stats, gc, clear, merge (the `pim-tradeoffs cache` subcommand).

/// One complete frame of a cache directory, as [`cache_entries`] lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The segment file holding the frame.
    pub segment: PathBuf,
    /// The frame's byte range in the segment; the document ends it.
    pub frame: Range<u64>,
    /// The digest the frame header files the entry under.
    pub digest: u128,
    /// The entry document, `{cache_schema, key, checksum, payload}` JSON.
    pub text: String,
    /// The key and payload if the document verifies under the frame's digest.
    pub verified: Option<(UnitKey, Value)>,
}

/// Every complete frame of the cache at `root`, oldest first, verified or not: the
/// one listing behind `stats`, `gc` and `merge`.
pub fn cache_entries(root: &Path) -> Result<Vec<CacheEntry>, String> {
    let (seqs, mut entries) = (list_units(root)?.0, Vec::new());
    for segment in seqs.into_iter().map(|seq| segment_path(root, seq)) {
        let walked = walk(&segment, 0, |digest, frame, text| {
            let verified = verify_entry(&text).filter(|(key, _)| key.digest_u128() == digest);
            let segment = segment.clone();
            entries.push(CacheEntry {
                segment,
                frame,
                digest,
                text,
                verified,
            });
        });
        let failed = walked.err().filter(|e| e.kind() != ErrorKind::NotFound);
        if let Some(e) = failed {
            return Err(io_err("read cache segment", &segment, &e));
        }
    }
    Ok(entries)
}

/// Outcome of a [`cache_merge`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Source directories merged.
    pub sources: u64,
    /// Entries copied into the destination.
    pub copied: u64,
    /// Entries the destination already held (content is a function of the key).
    pub skipped_existing: u64,
    /// Source frames that failed verification (corrupt, stale or foreign).
    pub skipped_invalid: u64,
    /// Distinct entries in the destination after the merge.
    pub entries_after: u64,
}

/// Merge the entries of `sources` into the cache at `dest` (opened or created with
/// the current format). This is how sharded sweeps meet: each `run --shard I/N`
/// populates its own cache directory, and one merge assembles them into a cache a
/// subsequent unsharded run serves entirely from. A missing source, or one without
/// the current format marker, fails the merge before anything is copied. Corrupt
/// and foreign source frames and digests `dest` holds are skipped and counted; the
/// rest are appended to one new segment.
pub fn cache_merge(dest: &Path, sources: &[PathBuf]) -> Result<MergeOutcome, String> {
    if sources.is_empty() {
        return Err("cache merge needs at least one source directory".into());
    }
    // Validate every source before touching the destination: a merge failing on
    // source 3 of 4 must not leave a half-assembled cache that looks complete.
    for source in sources {
        std::fs::metadata(source).map_err(|e| io_err("access cache directory", source, &e))?;
        let advice = "re-run its shard against the current build instead of merging it";
        if !check_marker(source, advice)? {
            let path = source.display();
            return Err(format!(
                "{path} is not a cache directory (no {FORMAT_FILE} marker)"
            ));
        }
    }
    let cache = UnitCache::open(dest)?;
    let held = |digest| unpoisoned(cache.state.lock()).index.find(digest).1.is_ok();
    let mut outcome = MergeOutcome::default();
    for source in sources {
        outcome.sources += 1;
        for entry in cache_entries(source)? {
            if entry.verified.is_none() {
                outcome.skipped_invalid += 1;
            } else if held(entry.digest) {
                outcome.skipped_existing += 1;
            } else {
                cache.append(entry.digest, &entry.text)?;
                outcome.copied += 1;
            }
        }
    }
    let state = unpoisoned(cache.state.lock());
    outcome.entries_after = state.index.0.iter().map(|shard| shard.len() as u64).sum();
    Ok(outcome)
}

/// Aggregate statistics of a cache directory.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CacheStats {
    /// Number of complete frames.
    pub entries: u64,
    /// Total bytes across those frames.
    pub bytes: u64,
    /// Frames per scenario name; those failing verification count as `"<unreadable>"`.
    pub per_scenario: Vec<(String, u64)>,
}

/// Outcome of a [`cache_gc`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcOutcome {
    /// Frames scanned.
    pub scanned: u64,
    /// Corrupt, stale, foreign and superseded frames and stray files removed.
    pub removed_invalid: u64,
    /// Valid entries removed (oldest first) to respect the size budget.
    pub removed_for_size: u64,
    /// Total frame bytes after the pass.
    pub bytes_after: u64,
}

/// Remove `path`; a file already gone was removed by a concurrent pass.
fn remove_if_present(op: &str, path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(io_err(op, path, &e)),
        _ => Ok(()),
    }
}

/// Summarize the cache at `root`.
pub fn cache_stats(root: &Path) -> Result<CacheStats, String> {
    let mut stats = CacheStats::default();
    let mut per: BTreeMap<String, u64> = BTreeMap::new();
    for entry in cache_entries(root)? {
        stats.entries += 1;
        stats.bytes += entry.frame.end - entry.frame.start;
        let scenario = entry
            .verified
            .map_or("<unreadable>".into(), |(key, _)| key.scenario);
        *per.entry(scenario).or_default() += 1;
    }
    stats.per_scenario = per.into_iter().collect();
    Ok(stats)
}

/// Remove every file in `root`'s `units/` (older formats' entries too) and the
/// format marker; return the number of frames and other files removed.
pub fn cache_clear(root: &Path) -> Result<u64, String> {
    let (_, files, strays) = list_units(root)?;
    let removed = cache_entries(root)?.len() as u64 + strays;
    for path in files.iter().chain([&root.join(FORMAT_FILE)]) {
        remove_if_present("remove cache file", path)?;
    }
    Ok(removed)
}

/// Garbage-collect `root`: write the live entries (the newest verified frame of
/// each digest; with `max_bytes`, newest first while they fit) to a fresh segment,
/// then remove every other file in `units/`. A pass racing a gc or clear never
/// fails on a file the other removed; entries either drops are recomputed.
pub fn cache_gc(root: &Path, max_bytes: Option<u64>) -> Result<GcOutcome, String> {
    let ((seqs, files, strays), entries) = (list_units(root)?, cache_entries(root)?);
    let mut outcome = GcOutcome::default();
    (outcome.scanned, outcome.removed_invalid) = (entries.len() as u64, strays);
    let (mut seen, mut live) = (BTreeSet::new(), Vec::new());
    for entry in entries.iter().rev() {
        let bytes = entry.frame.end - entry.frame.start;
        if entry.verified.is_none() || !seen.insert(entry.digest) {
            outcome.removed_invalid += 1;
        } else if outcome.removed_for_size > 0
            || max_bytes.is_some_and(|budget| outcome.bytes_after + bytes > budget)
        {
            outcome.removed_for_size += 1;
        } else {
            outcome.bytes_after += bytes;
            live.push(encode_frame(entry.digest, &entry.text)?);
        }
    }
    if !live.is_empty() {
        // No temp file needed: readers of a half-written segment see a torn tail.
        live.reverse();
        let (seq, mut file) = create_segment(root, seqs.last().map_or(1, |s| s + 1))?;
        let write = file.write_all(&live.concat());
        write.map_err(|e| io_err("write cache segment", &segment_path(root, seq), &e))?;
    }
    for path in &files {
        remove_if_present("remove cache file", path)?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pim-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn demo_key(grid: usize) -> UnitKey {
        UnitKeyer::new("demo", &Value::Map(vec![]), 7).key(grid, 0)
    }

    /// The listed frame of `key`.
    fn entry_of(root: &Path, key: &UnitKey) -> CacheEntry {
        let entries = cache_entries(root).unwrap();
        let digest = key.digest_u128();
        entries
            .into_iter()
            .find(|e| e.digest == digest)
            .expect("frame listed")
    }

    /// Flip the last byte of `key`'s document (the closing brace of the entry).
    fn corrupt(root: &Path, key: &UnitKey) {
        let entry = entry_of(root, key);
        let mut bytes = std::fs::read(&entry.segment).unwrap();
        bytes[entry.frame.end as usize - 2] ^= 0x20;
        std::fs::write(&entry.segment, bytes).unwrap();
    }

    /// Append `frame` to a segment of its own, as a foreign writer would.
    fn write_segment(root: &Path, seq: u64, frame: &[u8]) {
        std::fs::write(segment_path(root, seq), frame).unwrap();
    }

    #[test]
    fn store_load_round_trips_and_counts() {
        let root = tmp_root("roundtrip");
        let cache = UnitCache::open(&root).unwrap();
        let key = demo_key(0);
        assert!(matches!(cache.load(&key), CacheLookup::Miss));
        let payload = Value::Seq(vec![Value::F64(1.5), Value::U64(2)]);
        cache.store(&key, &payload).unwrap();
        match cache.load(&key) {
            CacheLookup::Hit(back) => assert_eq!(back, payload),
            _ => panic!("expected hit"),
        }
        let stats = cache_stats(&root).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.per_scenario, vec![("demo".to_string(), 1)]);
        assert!(stats.bytes > 0);
        // A second handle indexes the frame at open.
        match UnitCache::open(&root).unwrap().load(&key) {
            CacheLookup::Hit(back) => assert_eq!(back, payload),
            _ => panic!("expected hit after reopen"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_and_bitflipped_entries_are_evicted() {
        let root = tmp_root("corrupt");
        let cache = UnitCache::open(&root).unwrap();
        let (ka, kb) = (demo_key(0), demo_key(1));
        cache.store(&ka, &Value::F64(1.0)).unwrap();
        cache.store(&kb, &Value::F64(2.0)).unwrap();

        // Flip a byte of the first frame; cut the second (the segment's tail) in
        // half, as a crash mid-append would.
        corrupt(&root, &ka);
        let tail = entry_of(&root, &kb);
        let half = (tail.frame.start + tail.frame.end) / 2;
        let bytes = std::fs::read(&tail.segment).unwrap();
        std::fs::write(&tail.segment, &bytes[..half as usize]).unwrap();

        // The flipped frame is corrupt; the torn one reads as never written.
        assert!(matches!(cache.load(&ka), CacheLookup::Corrupt));
        assert!(matches!(cache.load(&kb), CacheLookup::Miss));
        // The corrupt frame was evicted: the next lookups are clean misses.
        assert!(matches!(cache.load(&ka), CacheLookup::Miss));
        assert!(matches!(cache.load(&kb), CacheLookup::Miss));

        // A fresh handle does not index the torn tail at all; re-stored units
        // land in its own segment and supersede the damaged frames.
        let fresh = UnitCache::open(&root).unwrap();
        assert!(matches!(fresh.load(&ka), CacheLookup::Corrupt));
        assert!(matches!(fresh.load(&kb), CacheLookup::Miss));
        fresh.store(&ka, &Value::F64(1.0)).unwrap();
        fresh.store(&kb, &Value::F64(2.0)).unwrap();
        let again = UnitCache::open(&root).unwrap();
        assert!(matches!(again.load(&ka), CacheLookup::Hit(Value::F64(x)) if x == 1.0));
        assert!(matches!(again.load(&kb), CacheLookup::Hit(Value::F64(x)) if x == 2.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn misfiled_entry_with_wrong_key_reads_as_corrupt() {
        let root = tmp_root("misfiled");
        let cache = UnitCache::open(&root).unwrap();
        let (ka, kb) = (demo_key(0), demo_key(1));
        cache.store(&ka, &Value::F64(1.0)).unwrap();
        // A foreign frame: a's intact document filed under b's digest.
        let text = entry_of(&root, &ka).text;
        write_segment(&root, 50, &encode_frame(kb.digest_u128(), &text).unwrap());
        let reopened = UnitCache::open(&root).unwrap();
        assert!(matches!(reopened.load(&kb), CacheLookup::Corrupt));
        assert!(matches!(reopened.load(&ka), CacheLookup::Hit(_)));
        assert!(entry_of(&root, &kb).verified.is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_drops_invalid_entries_and_respects_budget() {
        let root = tmp_root("gc");
        let cache = UnitCache::open(&root).unwrap();
        for i in 0..4 {
            cache.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        corrupt(&root, &demo_key(0));
        let out = cache_gc(&root, None).unwrap();
        assert_eq!(out.scanned, 4);
        assert_eq!(out.removed_invalid, 1);
        assert_eq!(out.removed_for_size, 0);
        // The survivors moved to one fresh segment and still load.
        let entries = cache_entries(&root).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.segment == entries[0].segment));
        let reopened = UnitCache::open(&root).unwrap();
        assert!(matches!(reopened.load(&demo_key(0)), CacheLookup::Miss));
        for i in 1..4 {
            assert!(matches!(reopened.load(&demo_key(i)), CacheLookup::Hit(_)));
        }

        // A zero budget evicts every remaining (valid) entry.
        let out = cache_gc(&root, Some(0)).unwrap();
        assert_eq!(out.removed_for_size, 3);
        assert_eq!(out.bytes_after, 0);
        assert_eq!(cache_stats(&root).unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_keeps_the_newest_entries_within_the_budget() {
        let root = tmp_root("gc-budget");
        let cache = UnitCache::open(&root).unwrap();
        for i in 0..4 {
            cache.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        // Re-storing key 0 makes it the newest; its first frame is superseded.
        cache.store(&demo_key(0), &Value::U64(0)).unwrap();
        let sizes: Vec<u64> = cache_entries(&root)
            .unwrap()
            .iter()
            .map(|e| e.frame.end - e.frame.start)
            .collect();
        let budget = sizes[3] + sizes[4];
        let out = cache_gc(&root, Some(budget)).unwrap();
        assert_eq!(out.scanned, 5);
        assert_eq!(out.removed_invalid, 1, "the superseded frame of key 0");
        assert_eq!(out.removed_for_size, 2, "keys 1 and 2, the oldest");
        assert_eq!(out.bytes_after, budget);
        let reopened = UnitCache::open(&root).unwrap();
        for (i, kept) in [(0, true), (1, false), (2, false), (3, true)] {
            let hit = matches!(reopened.load(&demo_key(i)), CacheLookup::Hit(_));
            assert_eq!(hit, kept, "key {i}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_unions_disjoint_sources_and_skips_duplicates() {
        let root = tmp_root("merge");
        let (a, b) = (root.join("a"), root.join("b"));
        let ca = UnitCache::open(&a).unwrap();
        let cb = UnitCache::open(&b).unwrap();
        // Disjoint halves plus one shared entry.
        for i in 0..3 {
            ca.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        for i in 2..5 {
            cb.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        let dest = root.join("merged");
        let out = cache_merge(&dest, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(out.sources, 2);
        assert_eq!(out.copied, 5, "0..5 distinct keys");
        assert_eq!(out.skipped_existing, 1, "key 2 arrived from both sources");
        assert_eq!(out.skipped_invalid, 0);
        assert_eq!(out.entries_after, 5);
        // Merged entries are live: every key loads as a hit.
        let merged = UnitCache::open(&dest).unwrap();
        for i in 0..5 {
            match merged.load(&demo_key(i)) {
                CacheLookup::Hit(v) => assert_eq!(v, Value::U64(i as u64)),
                other => panic!("key {i} not merged: {other:?}"),
            }
        }
        // Merging again is a no-op (everything already present).
        let again = cache_merge(&dest, &[a, b]).unwrap();
        assert_eq!(again.copied, 0);
        assert_eq!(again.skipped_existing, 6);
        assert_eq!(again.entries_after, 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_skips_corrupt_and_misfiled_source_entries() {
        let root = tmp_root("merge-bad");
        let src = root.join("src");
        let cache = UnitCache::open(&src).unwrap();
        for i in 0..3 {
            cache.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        // Corrupt one frame and file a copy of another under a foreign digest.
        corrupt(&src, &demo_key(0));
        let text = entry_of(&src, &demo_key(1)).text;
        let foreign = encode_frame(demo_key(3).digest_u128(), &text).unwrap();
        write_segment(&src, 50, &foreign);
        let out = cache_merge(&root.join("merged"), &[src]).unwrap();
        assert_eq!(out.copied, 2, "only the intact, correctly-filed entries");
        assert_eq!(out.skipped_invalid, 2);
        assert_eq!(out.entries_after, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_refuses_missing_unmarked_and_incompatible_sources() {
        let root = tmp_root("merge-refuse");
        std::fs::create_dir_all(&root).unwrap();
        let dest = root.join("merged");

        // Missing source.
        let err = cache_merge(&dest, &[root.join("nope")]).unwrap_err();
        assert!(err.contains("cannot access cache directory"), "{err}");
        // No sources at all.
        let err = cache_merge(&dest, &[]).unwrap_err();
        assert!(err.contains("at least one source"), "{err}");
        // A directory without the format marker is not a cache.
        let unmarked = root.join("unmarked");
        std::fs::create_dir_all(&unmarked).unwrap();
        let err = cache_merge(&dest, &[unmarked]).unwrap_err();
        assert!(err.contains("not a cache directory"), "{err}");
        // A marker from another CACHE_SCHEMA_VERSION is incompatible.
        let stale = root.join("stale");
        std::fs::create_dir_all(stale.join("units")).unwrap();
        std::fs::write(
            stale.join(FORMAT_FILE),
            "{\"format\": \"pim-unit-cache\", \"cache_schema\": 1}\n",
        )
        .unwrap();
        let err = cache_merge(&dest, &[stale]).unwrap_err();
        assert!(err.contains("incompatible version"), "{err}");
        assert!(err.contains("cache_schema\": 1"), "{err}");
        // Source validation runs before the destination is touched: a bad source
        // in any position leaves no half-assembled destination behind.
        let good = root.join("good");
        UnitCache::open(&good)
            .unwrap()
            .store(&demo_key(0), &Value::U64(0))
            .unwrap();
        let err = cache_merge(&dest, &[good, root.join("nope")]).unwrap_err();
        assert!(err.contains("cannot access cache directory"), "{err}");
        assert!(!dest.exists(), "failed merge created the destination");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_treats_entries_vanishing_mid_pass_as_already_gone() {
        // A segment removed between two merges (a concurrent gc/clear) leaves the
        // second an error-free no-op, the same already-gone discipline as gc.
        let root = tmp_root("merge-race");
        let src = root.join("src");
        let cache = UnitCache::open(&src).unwrap();
        cache.store(&demo_key(0), &Value::U64(0)).unwrap();
        let dest = root.join("merged");
        assert_eq!(
            cache_merge(&dest, std::slice::from_ref(&src))
                .unwrap()
                .copied,
            1
        );
        std::fs::remove_file(entry_of(&src, &demo_key(0)).segment).unwrap();
        let out = cache_merge(&dest, &[src]).unwrap();
        assert_eq!((out.copied, out.skipped_invalid), (0, 0));
        assert_eq!(out.entries_after, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn non_finite_payloads_are_never_stored() {
        // The JSON rendering would turn NaN/∞ into null, so a warm run would decode
        // a different value than the cold run computed — such payloads must stay
        // uncached rather than silently mutate.
        let root = tmp_root("nonfinite");
        let cache = UnitCache::open(&root).unwrap();
        for (grid, payload) in [
            (0, Value::F64(f64::NAN)),
            (1, Value::Seq(vec![Value::F64(f64::INFINITY)])),
            (
                2,
                Value::Map(vec![("x".into(), Value::F64(f64::NEG_INFINITY))]),
            ),
        ] {
            let key = demo_key(grid);
            cache.store(&key, &payload).unwrap();
            assert!(
                matches!(cache.load(&key), CacheLookup::Miss),
                "non-finite payload was persisted"
            );
        }
        assert_eq!(cache_stats(&root).unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn orphaned_temp_files_are_swept_by_gc_and_clear() {
        let root = tmp_root("tmpfiles");
        let cache = UnitCache::open(&root).unwrap();
        cache.store(&demo_key(0), &Value::U64(1)).unwrap();
        // A store killed mid-write leaves a torn tail; an interrupted writer of
        // another kind leaves a stray temp file.
        let segment = entry_of(&root, &demo_key(0)).segment;
        let frame = encode_frame(demo_key(1).digest_u128(), "{\"partial\": ").unwrap();
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() - 4]);
        std::fs::write(&segment, &bytes).unwrap();
        let orphan = root.join("units").join(".tmp-123-0");
        std::fs::write(&orphan, "partial entry").unwrap();

        // Stats and loads see only the complete frame; gc removes the orphan and
        // rewrites the segment without its torn tail.
        assert_eq!(cache_stats(&root).unwrap().entries, 1);
        assert!(matches!(
            UnitCache::open(&root).unwrap().load(&demo_key(1)),
            CacheLookup::Miss
        ));
        let out = cache_gc(&root, None).unwrap();
        assert_eq!(out.removed_invalid, 1);
        assert!(!orphan.exists());
        let entries = cache_entries(&root).unwrap();
        assert_eq!(entries.len(), 1);
        let len = std::fs::metadata(&entries[0].segment).unwrap().len();
        assert_eq!(len, entries[0].frame.end, "torn tail survived gc");

        // clear sweeps orphans too.
        std::fs::write(&orphan, "partial entry").unwrap();
        assert_eq!(cache_clear(&root).unwrap(), 2);
        assert!(!orphan.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn dangling_entry_paths_are_skipped_not_fatal() {
        let root = tmp_root("dangling");
        let cache = UnitCache::open(&root).unwrap();
        cache.store(&demo_key(0), &Value::U64(1)).unwrap();
        // A broken symlink named like a segment fails to open with NotFound — the
        // same error a concurrent gc/clear produces when it removes a segment
        // between our listing and our read. It reads as already gone.
        let dangling = segment_path(&root, 99);
        std::os::unix::fs::symlink(root.join("no-such-target"), &dangling).unwrap();
        assert_eq!(cache_stats(&root).unwrap().entries, 1);
        assert!(matches!(
            UnitCache::open(&root).unwrap().load(&demo_key(0)),
            CacheLookup::Hit(_)
        ));
        let gc = cache_gc(&root, Some(u64::MAX)).unwrap();
        assert_eq!(gc.scanned, 1);
        assert_eq!(gc.removed_invalid, 0);
        assert_eq!(cache_clear(&root).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn refresh_picks_up_frames_another_handle_appended() {
        let root = tmp_root("refresh");
        let (reader, writer) = (
            UnitCache::open(&root).unwrap(),
            UnitCache::open(&root).unwrap(),
        );
        writer.store(&demo_key(0), &Value::U64(0)).unwrap();
        // Each handle writes its own segment and sees others' only on refresh.
        assert!(matches!(reader.load(&demo_key(0)), CacheLookup::Miss));
        reader.refresh();
        assert!(matches!(reader.load(&demo_key(0)), CacheLookup::Hit(_)));
        // A grown segment is picked up from where the last refresh stopped.
        writer.store(&demo_key(1), &Value::U64(1)).unwrap();
        reader.refresh();
        assert!(matches!(reader.load(&demo_key(1)), CacheLookup::Hit(_)));
        reader.store(&demo_key(2), &Value::U64(2)).unwrap();
        let (seqs, _, _) = list_units(&root).unwrap();
        assert_eq!(seqs.len(), 2, "one segment per writer");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_writer_whose_segment_vanished_starts_a_fresh_one() {
        let root = tmp_root("vanished");
        let cache = UnitCache::open(&root).unwrap();
        cache.store(&demo_key(0), &Value::U64(0)).unwrap();
        cache_gc(&root, None).unwrap();
        // gc moved the entry to a segment of its own and removed the writer's.
        assert!(matches!(cache.load(&demo_key(0)), CacheLookup::Miss));
        cache.refresh();
        assert!(matches!(cache.load(&demo_key(0)), CacheLookup::Hit(_)));
        cache.store(&demo_key(1), &Value::U64(1)).unwrap();
        let fresh = UnitCache::open(&root).unwrap();
        assert!(matches!(fresh.load(&demo_key(1)), CacheLookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn index_shards_stay_sorted_and_later_inserts_supersede() {
        let mut index = Index::default();
        let digests: Vec<u128> = (0..2_000u128)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
            .collect();
        for (i, &digest) in digests.iter().enumerate() {
            index.insert(digest, 1, i as u64);
        }
        index.insert(digests[7], 2, 99);
        assert!(index
            .0
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].0 < w[1].0)));
        for (i, &digest) in digests.iter().enumerate() {
            let (shard, at) = index.find(digest);
            let location = shard[at.unwrap()].1;
            let expected = if i == 7 {
                2 << OFFSET_BITS | 99
            } else {
                1 << OFFSET_BITS | i as u64
            };
            assert_eq!(location, expected);
        }
    }

    #[test]
    fn concurrent_gc_clear_and_store_never_hard_fail() {
        // Two maintenance passes racing each other and a storing worker exercise
        // every file-vanished-underneath-us window: list→read, list→unlink. All of
        // them must resolve as "already gone", never as an io error aborting the
        // pass.
        let root = tmp_root("races");
        let cache = UnitCache::open(&root).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Failures are recorded, not asserted, inside the scope: a panic before
        // `stop` is set would leave the maintenance threads spinning forever and
        // hang the whole suite instead of failing it.
        let mut failures: Vec<String> = Vec::new();
        let (gc_result, clear_result) = std::thread::scope(|s| {
            let gc_passes = s.spawn(|| {
                let mut passes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    cache_gc(&root, Some(0))?;
                    passes += 1;
                }
                Ok::<u64, String>(passes)
            });
            let clear_passes = s.spawn(|| {
                let mut passes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    cache_clear(&root)?;
                    passes += 1;
                }
                Ok::<u64, String>(passes)
            });
            for i in 0..300 {
                let key = demo_key(i);
                // A store whose segment is swept away must never report an io
                // error; refreshing lets the writer start a fresh segment.
                if let Err(e) = cache.store(&key, &Value::U64(i as u64)) {
                    failures.push(format!("store {i}: {e}"));
                    break;
                }
                // A load racing the removals must see Hit or Miss, never an
                // eviction storm (Corrupt) from half-observed files.
                if let CacheLookup::Corrupt = cache.load(&key) {
                    failures.push(format!("entry {i} read as corrupt"));
                    break;
                }
                cache.refresh();
            }
            stop.store(true, Ordering::Relaxed);
            (gc_passes.join().unwrap(), clear_passes.join().unwrap())
        });
        let _ = std::fs::remove_dir_all(&root);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(gc_result.unwrap() > 0);
        assert!(clear_result.unwrap() > 0);
    }

    #[test]
    fn maintenance_on_a_nonexistent_directory_is_an_error() {
        let root = tmp_root("missing");
        for result in [
            cache_stats(&root).map(|_| ()),
            cache_gc(&root, None).map(|_| ()),
            cache_clear(&root).map(|_| ()),
        ] {
            let err = result.unwrap_err();
            assert!(err.contains("cannot access cache directory"), "{err}");
            assert!(err.contains("missing"), "{err}");
        }
    }

    #[test]
    fn clear_then_reopen_works() {
        let root = tmp_root("clear");
        let cache = UnitCache::open(&root).unwrap();
        cache.store(&demo_key(0), &Value::Null).unwrap();
        assert_eq!(cache_clear(&root).unwrap(), 1);
        // Marker is gone too, so reopen re-initializes the format.
        let cache = UnitCache::open(&root).unwrap();
        assert!(matches!(cache.load(&demo_key(0)), CacheLookup::Miss));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn incompatible_format_marker_is_rejected_with_guidance() {
        let root = tmp_root("format");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join(FORMAT_FILE),
            "{\"format\": \"pim-unit-cache\", \"cache_schema\": 1}\n",
        )
        .unwrap();
        let err = UnitCache::open(&root).unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
        assert!(err.contains("cache clear"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unwritable_dir_fails_fast_with_path_and_operation() {
        let root = tmp_root("unwritable");
        std::fs::create_dir_all(&root).unwrap();
        // A regular file where a directory must go: create_dir_all fails even for
        // root-privileged test runners (where permission bits would not).
        let file = root.join("blocker");
        std::fs::write(&file, "x").unwrap();
        let err = UnitCache::open(&file.join("cache")).unwrap_err();
        assert!(err.contains("cannot create directory"), "{err}");
        assert!(err.contains("blocker"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn digest_distinguishes_every_field() {
        let base = demo_key(0);
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.replication_index += 1;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.scenario.push('x');
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.fingerprint = fingerprint_value(&Value::U64(1));
        assert_ne!(base.digest(), other.digest());
        assert_eq!(base.digest(), demo_key(0).digest());
    }
}
