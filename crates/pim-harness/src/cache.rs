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
//! resolved seed, and the unit's grid/replication indices. The entry file name is the
//! stable 128-bit digest of all those fields, so any single-field edit — an axis
//! value, a fraction, a model family, a seed — addresses different entries and a
//! stale result can never be served. Constants compiled into the models themselves
//! are *not* part of the key; a semantic model change must bump
//! [`CACHE_SCHEMA_VERSION`], which invalidates every prior entry at once.
//!
//! ## On-disk format and concurrency
//!
//! Entries live under `<root>/units/<digest>.json`, each a self-describing JSON
//! document `{cache_schema, key, checksum, payload}` where `checksum` is the stable
//! hash of the payload's canonical JSON. Reads verify the schema, the full key echo
//! (collisions included) and the checksum; any mismatch — truncation, bit flips,
//! format drift — evicts the entry and recomputes instead of poisoning artifacts.
//! Writes go to a unique temp file followed by an atomic rename, so concurrent
//! workers (`--jobs N`) and even concurrent processes sharing one cache directory
//! never observe torn entries; last-writer-wins is harmless because entry content is
//! deterministic.

use crate::scenario::SeedPolicy;
use desim::stablehash::{stable_hash_hex, StableHasher};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the cache entry format *and* of the semantic contract between unit
/// keys and model code. Bump on any change that alters unit outputs without being
/// visible in scenario configs (model constants, stream derivations, entry shape);
/// the version participates in every [`UnitKey`] digest, so old entries become
/// unreachable rather than wrong. Independent of
/// [`crate::report::MANIFEST_SCHEMA_VERSION`] (the manifest is about batch
/// reporting, not entry semantics): manifest v3 added the shard block without
/// touching unit outputs, so entries written at manifest v2 stay valid. v3: the
/// `figure6` and `validation` units return the test-system time alone instead of
/// a whole `TradeoffPoint`, under unchanged keys.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Name of the cache-format marker file at the cache root.
const FORMAT_FILE: &str = "cache-format.json";
/// Subdirectory holding the per-unit entry files.
const UNITS_DIR: &str = "units";

/// Wrap an I/O error with the operation and the offending path — every filesystem
/// touch in the cache and the artifact writer reports through this, so a failure
/// deep in a parallel batch still names exactly what could not be done where.
pub fn io_err(op: &str, path: &Path, e: &std::io::Error) -> String {
    format!("cannot {op} {}: {e}", path.display())
}

/// Probe that `dir` exists (creating it if needed) and is writable, by writing and
/// removing a marker file. Called before a batch touches any unit so an unwritable
/// `--out`/`--cache` directory fails fast instead of erroring mid-run.
pub fn ensure_writable_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, &e))?;
    let probe = dir.join(format!(".pim-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe").map_err(|e| io_err("write to directory", dir, &e))?;
    std::fs::remove_file(&probe).map_err(|e| io_err("remove probe file", &probe, &e))?;
    Ok(())
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
    /// The raw 128-bit content digest over every field. This is the value the
    /// entry file name renders in hex, and — via [`desim::stablehash::shard_index`]
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

    /// The content address: [`UnitKey::digest_u128`] as 32 hex characters. Used as
    /// the entry file name.
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
    pub fn for_scenario(scenario: &dyn crate::scenario::Scenario, seeds: &SeedPolicy) -> UnitKeyer {
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
pub fn fingerprint_value(config: &Value) -> String {
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
    /// An entry existed but failed verification (truncated, bit-flipped, stale
    /// shape); it was evicted, the unit re-ran, and the result was re-stored.
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
    /// No entry on disk.
    Miss,
    /// Entry failed verification and was evicted.
    Corrupt,
}

/// A handle to an open cache directory.
#[derive(Debug)]
pub struct UnitCache {
    units: PathBuf,
}

/// Distinguishes temp files from concurrent stores in the same process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The exact content of a compatible cache-format marker file.
fn format_marker() -> String {
    format!("{{\"format\": \"pim-unit-cache\", \"cache_schema\": {CACHE_SCHEMA_VERSION}}}\n")
}

impl UnitCache {
    /// Open (creating if absent) the cache at `root`.
    ///
    /// Fails fast — with the offending path in the message — when the directory
    /// cannot be created or written, or when it carries a different cache format
    /// version (run `pim-tradeoffs cache clear` to discard it).
    pub fn open(root: &Path) -> Result<UnitCache, String> {
        let units = root.join(UNITS_DIR);
        ensure_writable_dir(&units)?;
        let format_path = root.join(FORMAT_FILE);
        let marker = format_marker();
        match std::fs::read_to_string(&format_path) {
            Ok(existing) => {
                if existing != marker {
                    return Err(format!(
                        "cache directory {} was written by an incompatible version \
                         (found {}, expected {}); run `pim-tradeoffs cache clear {}` to reset it",
                        root.display(),
                        existing.trim(),
                        marker.trim(),
                        root.display()
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Temp-file + rename, like entry publication: a concurrent opener
                // must see either no marker or the complete one, never a torn write
                // it would misread as an incompatible version.
                let tmp = root.join(format!(
                    ".{FORMAT_FILE}.tmp-{}-{}",
                    std::process::id(),
                    TMP_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::write(&tmp, &marker)
                    .map_err(|e| io_err("write cache format marker", &tmp, &e))?;
                std::fs::rename(&tmp, &format_path).map_err(|e| {
                    let _ = std::fs::remove_file(&tmp);
                    io_err("publish cache format marker", &format_path, &e)
                })?;
            }
            Err(e) => return Err(io_err("read cache format marker", &format_path, &e)),
        }
        Ok(UnitCache { units })
    }

    fn entry_path(&self, key: &UnitKey) -> PathBuf {
        self.units.join(format!("{}.json", key.digest()))
    }

    /// Look up `key`, verifying schema, key echo and checksum. Corrupt entries are
    /// evicted so the caller's recomputation replaces them.
    pub fn load(&self, key: &UnitKey) -> CacheLookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            // An unreadable entry is indistinguishable from a corrupt one.
            Err(_) => {
                self.evict(key);
                return CacheLookup::Corrupt;
            }
        };
        match verify_entry(&text, Some(key)) {
            Some(payload) => CacheLookup::Hit(payload),
            None => {
                self.evict(key);
                CacheLookup::Corrupt
            }
        }
    }

    /// Store `payload` under `key` via write-temp-then-rename, so readers (threads
    /// or other processes) never observe a torn entry.
    ///
    /// Payloads containing non-finite floats are **not stored** (the JSON rendering
    /// would turn `NaN`/`±∞` into `null` and a warm run would decode a different
    /// value than the cold run computed — the one way a checksummed entry could
    /// still poison byte-identity). Such units simply stay uncached and recompute
    /// every run.
    pub fn store(&self, key: &UnitKey, payload: &Value) -> Result<(), String> {
        if !json_round_trips(payload) {
            return Ok(());
        }
        let checksum = payload_checksum(payload)?;
        let entry = Value::Map(vec![
            (
                "cache_schema".into(),
                Value::U64(u64::from(CACHE_SCHEMA_VERSION)),
            ),
            ("key".into(), key.to_value()),
            ("checksum".into(), Value::Str(checksum)),
            ("payload".into(), payload.clone()),
        ]);
        let mut json = serde_json::to_string(&entry)
            .map_err(|e| format!("serialize cache entry {}: {e}", key.digest()))?;
        json.push('\n');
        let path = self.entry_path(key);
        let tmp = self.units.join(format!(
            ".{}.tmp-{}-{}",
            key.digest(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &json).map_err(|e| io_err("write cache entry", &tmp, &e))?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            // A concurrent `cache clear`/`cache gc` swept our in-flight temp file
            // away (maintenance cannot tell a live store's temp from a crash
            // orphan). The caller's result was cleared mid-publication, so the
            // unit simply stays uncached this round — recomputed next run, never
            // an error.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(io_err("publish cache entry", &path, &e))
            }
        }
    }

    /// Remove `key`'s entry, ignoring a concurrent removal.
    pub fn evict(&self, key: &UnitKey) {
        let _ = std::fs::remove_file(self.entry_path(key));
    }
}

/// True when `value` survives a JSON round trip losslessly. The vendored writer
/// renders non-finite floats as `null`, so a payload containing one must never be
/// persisted (see [`UnitCache::store`]). The executor's warm in-memory result map
/// applies the same admission rule so memory and disk never disagree about which
/// payloads are servable.
pub(crate) fn json_round_trips(value: &Value) -> bool {
    match value {
        Value::F64(x) => x.is_finite(),
        Value::Seq(items) => items.iter().all(json_round_trips),
        Value::Map(entries) => entries.iter().all(|(_, v)| json_round_trips(v)),
        _ => true,
    }
}

/// Checksum a payload: the stable hash of its canonical compact JSON.
fn payload_checksum(payload: &Value) -> Result<String, String> {
    serde_json::to_string(payload)
        .map(|json| stable_hash_hex(&json))
        .map_err(|e| format!("serialize cache payload: {e}"))
}

/// Parse and verify one entry document. `expect_key` additionally requires the
/// embedded key to match (digest collisions and misfiled entries read as corrupt).
/// Returns the payload on success.
fn verify_entry(text: &str, expect_key: Option<&UnitKey>) -> Option<Value> {
    verify_entry_parts(text, expect_key).map(|(_, payload)| payload)
}

/// [`verify_entry`], also returning the entry's embedded [`UnitKey`] — merge needs
/// the key to check that an entry sits under its own digest before copying it.
fn verify_entry_parts(text: &str, expect_key: Option<&UnitKey>) -> Option<(UnitKey, Value)> {
    let doc = serde_json::value_from_str(text).ok()?;
    let schema = doc.get("cache_schema")?.as_f64()?;
    if schema != f64::from(CACHE_SCHEMA_VERSION) {
        return None;
    }
    let embedded = UnitKey::from_value(doc.get("key")?).ok()?;
    if let Some(key) = expect_key {
        if &embedded != key {
            return None;
        }
    }
    let checksum = match doc.get("checksum")? {
        Value::Str(s) => s.clone(),
        _ => return None,
    };
    let payload = doc.get("payload")?;
    if payload_checksum(payload).ok()? != checksum {
        return None;
    }
    Some((embedded, payload.clone()))
}

// ---------------------------------------------------------------------------
// Maintenance: stats, gc, clear, merge (the `pim-tradeoffs cache` subcommand)
// ---------------------------------------------------------------------------

/// Outcome of a [`cache_merge`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Source directories merged.
    pub sources: u64,
    /// Entries copied into the destination.
    pub copied: u64,
    /// Entries skipped because the destination already held them (entry content is
    /// a pure function of the key, so an existing entry is the same entry).
    pub skipped_existing: u64,
    /// Source entries skipped because they failed verification (corrupt, stale
    /// schema, or filed under a name that is not their own digest).
    pub skipped_invalid: u64,
    /// Entry files in the destination after the merge.
    pub entries_after: u64,
}

/// Require that `root` is a cache directory of the current format: it must exist
/// and carry a byte-exact [`FORMAT_FILE`] marker. Used by [`cache_merge`] to refuse
/// sources written by an incompatible [`CACHE_SCHEMA_VERSION`] — copying their
/// entries would only seed the destination with digests the current code can never
/// address (or, worse, verify against a different semantic contract).
fn require_cache_format(root: &Path) -> Result<(), String> {
    std::fs::metadata(root).map_err(|e| io_err("access cache directory", root, &e))?;
    let format_path = root.join(FORMAT_FILE);
    let existing = match std::fs::read_to_string(&format_path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(format!(
                "{} is not a cache directory (no {FORMAT_FILE} marker)",
                root.display()
            ));
        }
        Err(e) => return Err(io_err("read cache format marker", &format_path, &e)),
    };
    let marker = format_marker();
    if existing != marker {
        return Err(format!(
            "cache directory {} was written by an incompatible version \
             (found {}, expected {}); re-run its shard against the current build \
             instead of merging it",
            root.display(),
            existing.trim(),
            marker.trim(),
        ));
    }
    Ok(())
}

/// Merge the entries of `sources` into the cache at `dest` (opened or created with
/// the current format). This is how sharded sweeps meet: each `run --shard I/N`
/// populates its own cache directory, and one merge assembles them into a cache a
/// subsequent unsharded run serves entirely from.
///
/// Every source must be a cache directory of the current [`CACHE_SCHEMA_VERSION`];
/// a missing, unmarked or incompatible source fails the merge before any entry is
/// copied. Each source entry is verified (schema, checksum, key echo, and that the
/// file sits under its own key's digest) before copying — corrupt entries are
/// skipped and counted, never propagated. Copies publish via the same
/// temp-file-plus-rename discipline as [`UnitCache::store`], so a merge can run
/// concurrently with shard runs and maintenance passes; an entry vanishing between
/// listing and read is treated as already gone, exactly like the gc paths.
pub fn cache_merge(dest: &Path, sources: &[PathBuf]) -> Result<MergeOutcome, String> {
    if sources.is_empty() {
        return Err("cache merge needs at least one source directory".into());
    }
    // Validate every source before touching the destination: a merge that fails on
    // source 3 of 4 must not leave a half-assembled cache the caller mistakes for
    // a complete one.
    for source in sources {
        require_cache_format(source)?;
    }
    let cache = UnitCache::open(dest)?;
    let mut outcome = MergeOutcome {
        sources: sources.len() as u64,
        ..MergeOutcome::default()
    };
    for source in sources {
        for (path, _, _) in list_units(source)?.entries {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                // Removed by a concurrent gc/clear since the listing: already gone.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                // Unreadable for any other reason: treat as corrupt, skip.
                Err(_) => {
                    outcome.skipped_invalid += 1;
                    continue;
                }
            };
            let Some((key, _)) = verify_entry_parts(&text, None) else {
                outcome.skipped_invalid += 1;
                continue;
            };
            // An entry filed under a name that is not its own key's digest would
            // read as corrupt at the destination (the load-time key echo check);
            // skip the misfiling here instead of propagating it.
            if path
                .file_stem()
                .is_some_and(|stem| stem != key.digest().as_str())
            {
                outcome.skipped_invalid += 1;
                continue;
            }
            let target = cache.entry_path(&key);
            if target.exists() {
                outcome.skipped_existing += 1;
                continue;
            }
            let tmp = cache.units.join(format!(
                ".{}.tmp-{}-{}",
                key.digest(),
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&tmp, &text).map_err(|e| io_err("write merged entry", &tmp, &e))?;
            match std::fs::rename(&tmp, &target) {
                Ok(()) => outcome.copied += 1,
                // A concurrent clear/gc swept the temp file (or the units dir)
                // mid-publication: the entry stays unmerged this round, like a
                // store racing maintenance.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(io_err("publish merged entry", &target, &e));
                }
            }
        }
    }
    outcome.entries_after = list_units(dest)?.entries.len() as u64;
    Ok(outcome)
}

/// Aggregate statistics of a cache directory.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CacheStats {
    /// Number of entry files.
    pub entries: u64,
    /// Total bytes across entry files.
    pub bytes: u64,
    /// Entries per scenario name (parsed from each entry's embedded key; entries
    /// whose key cannot be parsed are counted under `"<unreadable>"`).
    pub per_scenario: Vec<(String, u64)>,
}

/// Outcome of a [`cache_gc`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcOutcome {
    /// Entries scanned.
    pub scanned: u64,
    /// Corrupt entries, stale-schema entries and orphaned temp files removed.
    pub removed_invalid: u64,
    /// Valid entries removed (oldest first) to respect the size budget.
    pub removed_for_size: u64,
    /// Total entry bytes after the pass.
    pub bytes_after: u64,
}

/// Remove `path`, treating a concurrent removal (the file is already gone) as
/// success. Maintenance passes may race with each other and with other processes
/// sharing the cache directory; an entry vanishing between readdir and unlink
/// means someone else finished the job, not that maintenance failed. Returns
/// whether this call actually removed the file.
fn remove_if_present(op: &str, path: &Path) -> Result<bool, String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err(op, path, &e)),
    }
}

/// The classified contents of a cache's `units/` directory: real entry files plus
/// any `.tmp-*` leftovers from stores interrupted mid-write (crash, SIGKILL).
/// An entry's mtime is `None` when the filesystem cannot report one.
struct UnitsListing {
    entries: Vec<(PathBuf, u64, Option<std::time::SystemTime>)>,
    tmp_leftovers: Vec<PathBuf>,
}

fn list_units(root: &Path) -> Result<UnitsListing, String> {
    // A nonexistent root is a caller error (most likely a mistyped path), not an
    // empty cache: report it instead of silently claiming zero entries.
    std::fs::metadata(root).map_err(|e| io_err("access cache directory", root, &e))?;
    let units = root.join(UNITS_DIR);
    let mut listing = UnitsListing {
        entries: Vec::new(),
        tmp_leftovers: Vec::new(),
    };
    let dir = match std::fs::read_dir(&units) {
        Ok(dir) => dir,
        // Root exists but was never opened as a cache (or was cleared): empty.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(listing),
        Err(e) => return Err(io_err("read cache directory", &units, &e)),
    };
    for entry in dir {
        let entry = entry.map_err(|e| io_err("read cache directory", &units, &e))?;
        let path = entry.path();
        let name = entry.file_name();
        if name.to_string_lossy().contains(".tmp-") {
            listing.tmp_leftovers.push(path);
        } else if path.extension().is_some_and(|e| e == "json") {
            let meta = match std::fs::metadata(&path) {
                Ok(meta) => meta,
                // Removed by a concurrent gc/clear between readdir and stat:
                // already gone, nothing to list.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err("stat cache entry", &path, &e)),
            };
            listing
                .entries
                .push((path, meta.len(), meta.modified().ok()));
        }
    }
    // Stable order for deterministic reporting.
    listing.entries.sort();
    listing.tmp_leftovers.sort();
    Ok(listing)
}

/// Summarize the cache at `root`.
pub fn cache_stats(root: &Path) -> Result<CacheStats, String> {
    let mut stats = CacheStats::default();
    let mut per: Vec<(String, u64)> = Vec::new();
    for (path, len, _) in list_units(root)?.entries {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => Some(text),
            // Removed by a concurrent gc/clear since the listing: not an entry.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(_) => None,
        };
        stats.entries += 1;
        stats.bytes += len;
        let scenario = text
            .and_then(|text| {
                let doc = serde_json::value_from_str(&text).ok()?;
                UnitKey::from_value(doc.get("key")?).ok()
            })
            .map(|k| k.scenario)
            .unwrap_or_else(|| "<unreadable>".to_string());
        match per.iter_mut().find(|(name, _)| *name == scenario) {
            Some((_, n)) => *n += 1,
            None => per.push((scenario, 1)),
        }
    }
    per.sort();
    stats.per_scenario = per;
    Ok(stats)
}

/// Remove every entry, stray temp file and the format marker under `root`,
/// keeping the directory itself.
pub fn cache_clear(root: &Path) -> Result<u64, String> {
    let listing = list_units(root)?;
    let mut removed = 0;
    for (path, _, _) in listing.entries {
        if remove_if_present("remove cache entry", &path)? {
            removed += 1;
        }
    }
    for path in listing.tmp_leftovers {
        if remove_if_present("remove cache temp file", &path)? {
            removed += 1;
        }
    }
    let marker = root.join(FORMAT_FILE);
    remove_if_present("remove cache marker", &marker)?;
    Ok(removed)
}

/// Garbage-collect `root`: drop corrupt and stale-schema entries plus any temp
/// files orphaned by interrupted stores, then — when `max_bytes` is set — drop the
/// oldest valid entries until the total fits.
pub fn cache_gc(root: &Path, max_bytes: Option<u64>) -> Result<GcOutcome, String> {
    let mut outcome = GcOutcome::default();
    let listing = list_units(root)?;
    for path in listing.tmp_leftovers {
        remove_if_present("remove cache temp file", &path)?;
        outcome.removed_invalid += 1;
    }
    let mut valid: Vec<(PathBuf, u64, Option<std::time::SystemTime>)> = Vec::new();
    for (path, len, mtime) in listing.entries {
        outcome.scanned += 1;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            // Removed by a concurrent gc/clear since the listing: already
            // collected, nothing left to do.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            // Unreadable for any other reason: treat as corrupt below.
            Err(_) => String::new(),
        };
        if verify_entry(&text, None).is_some() {
            valid.push((path, len, mtime));
        } else {
            remove_if_present("remove cache entry", &path)?;
            outcome.removed_invalid += 1;
        }
    }
    let mut total: u64 = valid.iter().map(|(_, len, _)| *len).sum();
    if let Some(budget) = max_bytes {
        for idx in size_eviction_order(&valid) {
            if total <= budget {
                break;
            }
            let (path, len, _) = &valid[idx];
            remove_if_present("remove cache entry", path)?;
            total -= len;
            outcome.removed_for_size += 1;
        }
    }
    outcome.bytes_after = total;
    Ok(outcome)
}

/// The order in which a size-budget pass evicts valid entries: oldest mtime
/// first, ties broken by path for determinism. Entries whose mtime could not be
/// read cannot be meaningfully age-ordered, so they are never evicted for size —
/// previously they sorted as `UNIX_EPOCH`, i.e. older than everything, and were
/// silently evicted *first* — though their bytes still count against the budget.
fn size_eviction_order(valid: &[(PathBuf, u64, Option<std::time::SystemTime>)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..valid.len()).filter(|&i| valid[i].2.is_some()).collect();
    order.sort_by(|&a, &b| {
        valid[a]
            .2
            .cmp(&valid[b].2)
            .then_with(|| valid[a].0.cmp(&valid[b].0))
    });
    order
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
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_and_bitflipped_entries_are_evicted() {
        let root = tmp_root("corrupt");
        let cache = UnitCache::open(&root).unwrap();
        let (ka, kb) = (demo_key(0), demo_key(1));
        cache.store(&ka, &Value::F64(1.0)).unwrap();
        cache.store(&kb, &Value::F64(2.0)).unwrap();

        // Truncate one entry, flip a payload byte in the other.
        let pa = cache.entry_path(&ka);
        let text = std::fs::read_to_string(&pa).unwrap();
        std::fs::write(&pa, &text[..text.len() / 2]).unwrap();
        let pb = cache.entry_path(&kb);
        let flipped = std::fs::read_to_string(&pb).unwrap().replace("2.0", "3.0");
        std::fs::write(&pb, flipped).unwrap();

        assert!(matches!(cache.load(&ka), CacheLookup::Corrupt));
        assert!(matches!(cache.load(&kb), CacheLookup::Corrupt));
        // Both corrupt entries were evicted: the next lookups are clean misses.
        assert!(matches!(cache.load(&ka), CacheLookup::Miss));
        assert!(matches!(cache.load(&kb), CacheLookup::Miss));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn misfiled_entry_with_wrong_key_reads_as_corrupt() {
        let root = tmp_root("misfiled");
        let cache = UnitCache::open(&root).unwrap();
        let (ka, kb) = (demo_key(0), demo_key(1));
        cache.store(&ka, &Value::F64(1.0)).unwrap();
        // Copy a's entry into b's slot: intact checksum, wrong key echo.
        std::fs::copy(cache.entry_path(&ka), cache.entry_path(&kb)).unwrap();
        assert!(matches!(cache.load(&kb), CacheLookup::Corrupt));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_drops_invalid_entries_and_respects_budget() {
        let root = tmp_root("gc");
        let cache = UnitCache::open(&root).unwrap();
        for i in 0..4 {
            cache.store(&demo_key(i), &Value::U64(i as u64)).unwrap();
        }
        // Corrupt one entry outright.
        std::fs::write(cache.entry_path(&demo_key(0)), "garbage").unwrap();
        let out = cache_gc(&root, None).unwrap();
        assert_eq!(out.scanned, 4);
        assert_eq!(out.removed_invalid, 1);
        assert_eq!(out.removed_for_size, 0);

        // A zero budget evicts every remaining (valid) entry.
        let out = cache_gc(&root, Some(0)).unwrap();
        assert_eq!(out.removed_for_size, 3);
        assert_eq!(out.bytes_after, 0);
        assert_eq!(cache_stats(&root).unwrap().entries, 0);
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
        // Corrupt one entry and misfile a copy of another under a foreign digest.
        std::fs::write(cache.entry_path(&demo_key(0)), "garbage").unwrap();
        std::fs::copy(
            cache.entry_path(&demo_key(1)),
            cache.entry_path(&demo_key(3)),
        )
        .unwrap();
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
        // An entry listed but removed before the copy (a concurrent gc/clear) is
        // skipped silently — the same already-gone discipline as the gc paths.
        // Simulated deterministically: list a source, remove an entry file, then
        // merge from a pre-listed snapshot is not possible through the public API,
        // so assert the weaker end-to-end form — merging a source that empties
        // between two merges stays an error-free no-op.
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
        std::fs::remove_file(cache.entry_path(&demo_key(0))).unwrap();
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
        // Simulate a store killed between write and rename.
        let orphan = root.join("units").join(".deadbeef.tmp-123-0");
        std::fs::write(&orphan, "partial entry").unwrap();

        // Stats sees only real entries; gc removes the orphan.
        assert_eq!(cache_stats(&root).unwrap().entries, 1);
        let out = cache_gc(&root, None).unwrap();
        assert_eq!(out.removed_invalid, 1);
        assert!(!orphan.exists());

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
        // A broken symlink makes fs::metadata fail with NotFound — the same
        // error a concurrent gc/clear produces when it unlinks an entry between
        // our readdir and stat. Maintenance must read it as "already gone"
        // rather than hard-failing the whole pass.
        let dangling = root.join(UNITS_DIR).join("deadbeef0000.json");
        std::os::unix::fs::symlink(root.join("no-such-target"), &dangling).unwrap();
        assert_eq!(cache_stats(&root).unwrap().entries, 1);
        let gc = cache_gc(&root, Some(u64::MAX)).unwrap();
        assert_eq!(gc.scanned, 1);
        assert_eq!(gc.removed_invalid, 0);
        assert_eq!(cache_clear(&root).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn size_eviction_orders_oldest_first_and_skips_mtime_less_entries() {
        use std::time::{Duration, UNIX_EPOCH};
        let e = |name: &str, secs: Option<u64>| {
            (
                PathBuf::from(name),
                10u64,
                secs.map(|s| UNIX_EPOCH + Duration::from_secs(s)),
            )
        };
        let valid = vec![
            e("b.json", Some(5)),
            e("a.json", None),
            e("c.json", Some(2)),
            e("d.json", Some(5)),
        ];
        let names: Vec<&str> = size_eviction_order(&valid)
            .into_iter()
            .map(|i| valid[i].0.to_str().unwrap())
            .collect();
        // Oldest first, path tie-break; the mtime-less entry is never doomed
        // (it used to sort as UNIX_EPOCH and be evicted before everything).
        assert_eq!(names, ["c.json", "b.json", "d.json"]);
    }

    #[test]
    fn concurrent_gc_clear_and_store_never_hard_fail() {
        // Two maintenance passes racing each other and a storing worker exercise
        // every entry-vanished-underneath-us window: readdir→stat, list→read,
        // list→unlink. All of them must resolve as "already gone", never as an
        // io error aborting the pass.
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
                // A store whose temp file is swept away mid-publication must
                // report "not cached", never an io error.
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
