//! The on-disk artifact store: one JSON file per (stage, content key),
//! wrapped in an envelope that records the payload's own content hash so
//! corruption (truncation, bit rot, concurrent writer damage) is
//! *detected at read time* and turned into a recompute — a corrupted
//! artifact is never served.
//!
//! Beyond the verified envelope, the store is the service's disk-budget
//! and crash-recovery layer:
//!
//! * **Byte budget + stage-ranked LRU eviction.** With a configured
//!   budget, a write that would exceed it first evicts by stage rank:
//!   every `eval` artifact is considered before any `sim` artifact.
//!   Within a stage, artifacts this store has read or written since it
//!   opened go first, least-recently-used first: the engine keeps every
//!   artifact it reads or writes in memory, so the ones it has not
//!   touched yet are the ones a restarted engine may still need.
//!   Keys pinned by in-flight requests are never evicted. The budget is
//!   a hard ceiling: the store's on-disk bytes never exceed it.
//! * **Crash recovery on open.** Orphaned `.{key}.tmp.<pid>` files left
//!   by a crashed writer are swept, and the size index is rebuilt from
//!   the directory tree, so a `kill -9` mid-write restarts clean.
//! * **Quarantine, not deletion.** An artifact that fails verification
//!   is moved to `<dir>/quarantine/` (preserved for post-mortem) rather
//!   than deleted or silently overwritten; the caller recomputes.
//! * **Deterministic fault injection.** [`StoreFaults`] arms a seeded
//!   schedule of torn writes, orphaned temp files, `ENOSPC`, read
//!   errors, and slow I/O — the chaos harness drives the whole service
//!   through these and asserts the recover-or-explain contract.

use sara_core::artifact::stable_hash_hex;
use sara_util::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Envelope format tag, bumped on breaking layout changes (old files
/// then read as corrupt → recompute, a safe miss).
pub const STORE_FORMAT: &str = "sarad-artifact-v1";

/// The stage directories the open-time scan rebuilds the index from,
/// in eviction order: every artifact of an earlier stage is evicted
/// before any of a later one. Any other directory (such as the
/// `compile/` or `place/` an older engine wrote) is neither indexed nor
/// evicted. Eval artifacts go first: a lost one costs a compile, a lost
/// sim artifact a compile, a placement and a simulation, and a
/// restarted `tune` under half its store's bytes ran faster with this
/// order (EXPERIMENTS.md).
pub const STAGES_BY_EVICTION_PRIORITY: [&str; 2] = ["eval", "sim"];

fn stage_rank(stage: &str) -> usize {
    STAGES_BY_EVICTION_PRIORITY.iter().position(|s| *s == stage).unwrap_or(usize::MAX)
}

/// Outcome of a store lookup.
#[derive(Debug)]
pub enum StoreRead {
    /// Verified payload.
    Hit(Json),
    /// No artifact on disk for this key.
    Miss,
    /// An artifact exists but failed verification (parse error, envelope
    /// mismatch, or payload-hash mismatch). The file has been moved to
    /// the quarantine directory; the caller must recompute.
    Corrupt(String),
    /// A transient I/O failure (permissions, injected read fault, disk
    /// error) — *not* evidence of corruption. The caller should compute
    /// without the cache (degraded mode) rather than fail the request.
    Failed(String),
}

/// Deterministic fault-injection schedule for the chaos harness. Each
/// store operation draws one number from a seeded xorshift stream and
/// compares it against the cumulative fault percentages, so a given
/// seed always injects the same fault sequence.
#[derive(Debug)]
pub struct StoreFaults {
    rng: Mutex<u64>,
    /// Percent of saves that publish a torn (truncated) file directly to
    /// the final path — simulating a non-atomic filesystem — and report
    /// failure.
    pub torn_write_pct: u8,
    /// Percent of saves that write the temp file and then "crash"
    /// (never rename), leaving an orphan for recovery to sweep.
    pub orphan_tmp_pct: u8,
    /// Percent of saves failing up front with a disk-full error.
    pub enospc_pct: u8,
    /// Percent of loads failing with a transient read error.
    pub read_err_pct: u8,
    /// Percent of operations delayed by [`StoreFaults::slow_ms`].
    pub slow_pct: u8,
    /// Injected latency for slow operations, in milliseconds.
    pub slow_ms: u64,
}

impl StoreFaults {
    /// A schedule drawing from `seed` (any value; zero is remapped).
    pub fn seeded(seed: u64) -> StoreFaults {
        StoreFaults {
            rng: Mutex::new(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed }),
            torn_write_pct: 0,
            orphan_tmp_pct: 0,
            enospc_pct: 0,
            read_err_pct: 0,
            slow_pct: 0,
            slow_ms: 0,
        }
    }

    fn roll(&self) -> u64 {
        let mut st = self.rng.lock().expect("fault rng poisoned");
        let mut x = *st;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *st = x;
        x % 100
    }

    fn maybe_sleep(&self) {
        if self.slow_pct > 0 && self.roll() < u64::from(self.slow_pct) {
            std::thread::sleep(std::time::Duration::from_millis(self.slow_ms));
        }
    }
}

/// What a seeded save-fault draw decided.
enum SaveFault {
    None,
    Torn,
    OrphanTmp,
    Enospc,
}

/// Monotonic store counters (all atomics: read without locking).
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Current on-disk bytes across all live artifacts (gauge).
    pub bytes: AtomicU64,
    /// Artifacts evicted to stay under the byte budget.
    pub evictions: AtomicU64,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: AtomicU64,
    /// Orphaned writer temp files swept during open.
    pub tmp_swept: AtomicU64,
    /// Corrupt artifacts moved to the quarantine directory.
    pub quarantined: AtomicU64,
    /// Saves refused or failed (budget, injected or real I/O errors).
    pub save_failures: AtomicU64,
}

#[derive(Debug)]
struct Entry {
    bytes: u64,
    /// Logical LRU clock value at last touch (monotonic, not wall time,
    /// so eviction order is deterministic under test).
    last_use: u64,
    /// Read or written since the store opened (false for an entry the
    /// open-time scan found and nothing has loaded yet).
    touched: bool,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<(String, String), Entry>,
    pins: HashMap<(String, String), usize>,
    clock: u64,
    bytes: u64,
}

impl Index {
    fn touch(&mut self, stage: &str, key: &str) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&(stage.to_string(), key.to_string())) {
            e.last_use = clock;
            e.touched = true;
        }
    }

    fn remove(&mut self, stage: &str, key: &str) -> Option<u64> {
        let e = self.entries.remove(&(stage.to_string(), key.to_string()))?;
        self.bytes = self.bytes.saturating_sub(e.bytes);
        Some(e.bytes)
    }

    fn insert(&mut self, stage: &str, key: &str, bytes: u64, touched: bool) {
        self.remove(stage, key);
        self.clock += 1;
        let entry = Entry { bytes, last_use: self.clock, touched };
        self.entries.insert((stage.to_string(), key.to_string()), entry);
        self.bytes += bytes;
    }

    fn pinned(&self, stage: &str, key: &str) -> bool {
        self.pins.get(&(stage.to_string(), key.to_string())).is_some_and(|n| *n > 0)
    }
}

/// RAII pin: while alive, the (stage, key) it names cannot be evicted.
/// The engine pins every key it is actively computing or serving so
/// eviction pressure from concurrent requests never removes an
/// artifact mid-flight.
#[derive(Debug)]
pub struct Pin<'a> {
    store: &'a Store,
    stage: String,
    key: String,
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        let mut idx = self.store.index.lock().expect("store index poisoned");
        if let Some(n) = idx.pins.get_mut(&(self.stage.clone(), self.key.clone())) {
            *n -= 1;
            if *n == 0 {
                idx.pins.remove(&(self.stage.clone(), self.key.clone()));
            }
        }
    }
}

/// A directory of stage-keyed artifacts (`<dir>/<stage>/<key>.json`)
/// with an in-memory size/LRU index, an optional byte budget, and a
/// quarantine directory for artifacts that fail verification.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    budget: Option<u64>,
    index: Mutex<Index>,
    faults: Option<StoreFaults>,
    /// Store-level counters (bytes gauge, evictions, sweeps, ...).
    pub counters: StoreCounters,
}

impl Store {
    /// Open (creating if needed) an unbudgeted store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Store, String> {
        Store::open_with(dir, None, None)
    }

    /// Open a store with an optional byte budget and an optional fault
    /// schedule. Opening sweeps orphaned writer temp files and rebuilds
    /// the size index from the directory tree (crash recovery), then —
    /// if the rebuilt tree already exceeds a newly configured budget —
    /// evicts down to the ceiling.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open_with(
        dir: &Path,
        budget: Option<u64>,
        faults: Option<StoreFaults>,
    ) -> Result<Store, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        let store = Store {
            dir: dir.to_path_buf(),
            budget,
            index: Mutex::new(Index::default()),
            faults,
            counters: StoreCounters::default(),
        };
        store.recover();
        if store.budget.is_some() {
            let mut idx = store.index.lock().expect("store index poisoned");
            store.evict_for(&mut idx, 0);
            store.counters.bytes.store(idx.bytes, Ordering::Relaxed);
        }
        Ok(store)
    }

    /// Crash-recovery sweep: remove orphaned `.{key}.tmp.<pid>` files
    /// (a writer died between `write` and `rename`) and rebuild the
    /// size index from the artifacts actually on disk.
    fn recover(&self) {
        let mut idx = self.index.lock().expect("store index poisoned");
        for stage in STAGES_BY_EVICTION_PRIORITY {
            let stage_dir = self.dir.join(stage);
            let Ok(entries) = std::fs::read_dir(&stage_dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                if name.starts_with('.') && name.contains(".tmp.") {
                    // Orphan left by a crashed writer: never published,
                    // safe to delete.
                    if std::fs::remove_file(&path).is_ok() {
                        self.counters.tmp_swept.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                let Some(key) = name.strip_suffix(".json") else { continue };
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_file() {
                    idx.insert(stage, key, meta.len(), false);
                }
            }
        }
        self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Current on-disk bytes across live artifacts.
    pub fn bytes(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// Path of the artifact for `(stage, key)`.
    pub fn path(&self, stage: &str, key: &str) -> PathBuf {
        self.dir.join(stage).join(format!("{key}.json"))
    }

    /// Directory holding quarantined (verification-failed) artifacts.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Pin `(stage, key)` against eviction for the guard's lifetime.
    pub fn pin(&self, stage: &str, key: &str) -> Pin<'_> {
        let mut idx = self.index.lock().expect("store index poisoned");
        *idx.pins.entry((stage.to_string(), key.to_string())).or_insert(0) += 1;
        Pin { store: self, stage: stage.to_string(), key: key.to_string() }
    }

    /// Move a verification-failed artifact aside instead of deleting
    /// it: the bytes are preserved for post-mortem under
    /// `quarantine/<stage>-<key>.json`, and the slot reads as a miss
    /// until a recompute heals it.
    fn quarantine(&self, stage: &str, key: &str, path: &Path) {
        let qdir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && std::fs::rename(path, qdir.join(format!("{stage}-{key}.json"))).is_ok();
        if !moved {
            // Quarantine dir unavailable (e.g. disk trouble): leave the
            // file in place; the recompute's save overwrites it.
            return;
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        let mut idx = self.index.lock().expect("store index poisoned");
        idx.remove(stage, key);
        self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
    }

    /// Look up and verify an artifact.
    pub fn load(&self, stage: &str, key: &str) -> StoreRead {
        if let Some(f) = &self.faults {
            f.maybe_sleep();
            if f.read_err_pct > 0 && f.roll() < u64::from(f.read_err_pct) {
                return StoreRead::Failed(format!(
                    "read {}: injected I/O error",
                    self.path(stage, key).display()
                ));
            }
        }
        let path = self.path(stage, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return StoreRead::Miss,
            Err(e) => return StoreRead::Failed(format!("read {}: {e}", path.display())),
        };
        let verified = verify_envelope(&text, stage, key, &path);
        match verified {
            Ok(payload) => {
                self.index.lock().expect("store index poisoned").touch(stage, key);
                StoreRead::Hit(payload)
            }
            Err(why) => {
                self.quarantine(stage, key, &path);
                StoreRead::Corrupt(why)
            }
        }
    }

    /// Evict unpinned artifacts until `need` more bytes fit under the
    /// budget. Victims are chosen by stage rank (every eval before any
    /// sim); within a stage, entries read or written since open before
    /// the rest, LRU within each.
    fn evict_for(&self, idx: &mut Index, need: u64) {
        let Some(budget) = self.budget else { return };
        while idx.bytes + need > budget {
            let victim = idx
                .entries
                .iter()
                .filter(|((stage, key), _)| !idx.pinned(stage, key))
                .min_by_key(|((stage, _), e)| (stage_rank(stage), !e.touched, e.last_use))
                .map(|((stage, key), _)| (stage.clone(), key.clone()));
            let Some((stage, key)) = victim else { break };
            let freed = idx.remove(&stage, &key).unwrap_or(0);
            let _ = std::fs::remove_file(self.path(&stage, &key));
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            self.counters.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
        }
        self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
    }

    /// Write (or overwrite) an artifact. The write goes through a
    /// temporary file + rename so a crash mid-write leaves either the
    /// old artifact or none — never a torn one that would read as
    /// corrupt forever. Under a byte budget the write first evicts
    /// artifacts by stage rank to make room; an artifact that
    /// cannot fit (larger than the whole budget, or everything else is
    /// pinned) is refused with an error the engine downgrades to
    /// compute-without-cache.
    ///
    /// # Errors
    ///
    /// A one-line description of the failing filesystem operation or
    /// budget refusal.
    pub fn save(&self, stage: &str, key: &str, payload: &Json) -> Result<PathBuf, String> {
        match self.save_inner(stage, key, payload) {
            Ok(p) => Ok(p),
            Err(e) => {
                self.counters.save_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn save_inner(&self, stage: &str, key: &str, payload: &Json) -> Result<PathBuf, String> {
        let path = self.path(stage, key);
        let parent = path.parent().expect("store paths always have a stage directory");
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        let doc = Json::object()
            .set("format", STORE_FORMAT)
            .set("stage", stage)
            .set("key", key)
            .set("payload_hash", stable_hash_hex(payload.pretty().as_bytes()))
            .set("payload", payload.clone());
        let text = doc.pretty();
        let need = text.len() as u64;
        let tmp = parent.join(format!(".{key}.tmp.{}", std::process::id()));

        let fault = match &self.faults {
            Some(f) => {
                f.maybe_sleep();
                let r = f.roll();
                let torn = u64::from(f.torn_write_pct);
                let orphan = torn + u64::from(f.orphan_tmp_pct);
                let enospc = orphan + u64::from(f.enospc_pct);
                if r < torn {
                    SaveFault::Torn
                } else if r < orphan {
                    SaveFault::OrphanTmp
                } else if r < enospc {
                    SaveFault::Enospc
                } else {
                    SaveFault::None
                }
            }
            None => SaveFault::None,
        };
        match fault {
            SaveFault::Enospc => {
                return Err(format!("cannot write {}: no space left on device", tmp.display()));
            }
            SaveFault::OrphanTmp => {
                // Crash between write and rename: the orphan stays for
                // the next open's recovery sweep.
                let _ = std::fs::write(&tmp, &text);
                return Err(format!(
                    "cannot publish {}: simulated crash mid-write",
                    path.display()
                ));
            }
            SaveFault::Torn => {
                // Non-atomic publish: a truncated file lands at the
                // final path. Read-time verification must catch it. The
                // torn bytes still count toward the budget ceiling.
                let torn_len = text.len() / 2;
                let _ = std::fs::write(&path, &text[..torn_len]);
                let mut idx = self.index.lock().expect("store index poisoned");
                idx.insert(stage, key, torn_len as u64, true);
                self.evict_for(&mut idx, 0);
                self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
                return Err(format!("cannot write {}: torn write injected", path.display()));
            }
            SaveFault::None => {}
        }

        // The index lock is held across admission, eviction, and the
        // write itself: concurrent saves admit sequentially, so the
        // byte budget is a hard ceiling, not a best-effort target.
        let mut idx = self.index.lock().expect("store index poisoned");
        if let Some(budget) = self.budget {
            if need > budget {
                return Err(format!("cache budget: artifact is {need} B, budget is {budget} B"));
            }
            // An overwrite replaces the old entry: drop its accounting
            // before making room for the full new size.
            if idx.remove(stage, key).is_some() {
                self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
            }
            self.evict_for(&mut idx, need);
            if idx.bytes + need > budget {
                return Err(format!(
                    "cache budget: cannot free {need} B (pinned entries hold the rest)"
                ));
            }
        }
        let publish = std::fs::write(&tmp, &text)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))
            .and_then(|()| {
                std::fs::rename(&tmp, &path).map_err(|e| {
                    let _ = std::fs::remove_file(&tmp);
                    format!("cannot publish {}: {e}", path.display())
                })
            });
        if let Err(e) = publish {
            // The old artifact (if any) is gone or torn; remove both the
            // file and its accounting so disk usage matches the index.
            let _ = std::fs::remove_file(&path);
            idx.remove(stage, key);
            self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
            return Err(e);
        }
        idx.insert(stage, key, need, true);
        self.counters.bytes.store(idx.bytes, Ordering::Relaxed);
        Ok(path)
    }
}

/// Parse and verify one envelope; `Ok` is the payload.
fn verify_envelope(text: &str, stage: &str, key: &str, path: &Path) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let envelope_ok = doc.get("format").and_then(Json::as_str) == Some(STORE_FORMAT)
        && doc.get("stage").and_then(Json::as_str) == Some(stage)
        && doc.get("key").and_then(Json::as_str) == Some(key);
    if !envelope_ok {
        return Err(format!("envelope mismatch in {}", path.display()));
    }
    let (Some(stored), Some(payload)) =
        (doc.get("payload_hash").and_then(Json::as_str), doc.get("payload"))
    else {
        return Err(format!("missing payload in {}", path.display()));
    };
    let actual = stable_hash_hex(payload.pretty().as_bytes());
    if actual != stored {
        return Err(format!("payload hash mismatch in {} ({actual} != {stored})", path.display()));
    }
    Ok(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sarad-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_store(tag: &str) -> Store {
        Store::open(&tmp_dir(tag)).unwrap()
    }

    fn payload_of_size(bytes: usize) -> Json {
        // The envelope adds overhead; this just needs rough control.
        Json::object().set("blob", "x".repeat(bytes))
    }

    #[test]
    fn round_trips_and_verifies() {
        let s = tmp_store("rt");
        let payload = Json::object().set("cycles", 1234).set("note", "x");
        s.save("sim", "k1", &payload).unwrap();
        match s.load("sim", "k1") {
            StoreRead::Hit(p) => assert_eq!(p.pretty(), payload.pretty()),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(s.load("sim", "other"), StoreRead::Miss));
        assert!(matches!(s.load("eval", "k1"), StoreRead::Miss));
    }

    #[test]
    fn tampered_payload_reads_as_corrupt_and_is_quarantined() {
        let s = tmp_store("tamper");
        let payload = Json::object().set("cycles", 1234);
        let path = s.save("sim", "k2", &payload).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Valid JSON, wrong content: only the payload hash can catch it.
        std::fs::write(&path, text.replace("1234", "9999")).unwrap();
        assert!(matches!(s.load("sim", "k2"), StoreRead::Corrupt(_)));
        // The evidence is preserved, not deleted, and the slot is a miss.
        assert!(s.quarantine_dir().join("sim-k2.json").exists());
        assert!(matches!(s.load("sim", "k2"), StoreRead::Miss));
        assert_eq!(s.counters.quarantined.load(Ordering::Relaxed), 1);
        // Recompute path: overwriting heals the entry.
        s.save("sim", "k2", &payload).unwrap();
        assert!(matches!(s.load("sim", "k2"), StoreRead::Hit(_)));
    }

    #[test]
    fn truncated_artifact_is_quarantined_too() {
        let s = tmp_store("trunc");
        let payload = Json::object().set("cycles", 1234);
        let path = s.save("sim", "k3", &payload).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(s.load("sim", "k3"), StoreRead::Corrupt(_)));
        assert!(s.quarantine_dir().join("sim-k3.json").exists());
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files_and_rebuilds_index() {
        let dir = tmp_dir("sweep");
        let payload = Json::object().set("cycles", 7);
        let size = {
            let s = Store::open(&dir).unwrap();
            let p = s.save("sim", "live", &payload).unwrap();
            std::fs::metadata(p).unwrap().len()
        };
        // A crashed writer's leftovers, in two stage dirs.
        std::fs::write(dir.join("sim").join(".dead.tmp.12345"), b"partial").unwrap();
        std::fs::create_dir_all(dir.join("eval")).unwrap();
        std::fs::write(dir.join("eval").join(".dead2.tmp.999"), b"partial").unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.counters.tmp_swept.load(Ordering::Relaxed), 2);
        assert!(!dir.join("sim").join(".dead.tmp.12345").exists());
        assert!(!dir.join("eval").join(".dead2.tmp.999").exists());
        // The index rebuilt from disk sees exactly the live artifact.
        assert_eq!(s.bytes(), size);
        assert!(matches!(s.load("sim", "live"), StoreRead::Hit(_)));
    }

    #[test]
    fn budget_evicts_lru_within_stage_and_never_exceeds_ceiling() {
        let dir = tmp_dir("budget");
        let budget = 4096;
        let s = Store::open_with(&dir, Some(budget), None).unwrap();
        let p = payload_of_size(1000); // ~1.2 KiB per envelope
        s.save("sim", "a", &p).unwrap();
        s.save("sim", "b", &p).unwrap();
        s.save("sim", "c", &p).unwrap();
        assert!(s.bytes() <= budget);
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(s.load("sim", "a"), StoreRead::Hit(_)));
        s.save("sim", "d", &p).unwrap();
        assert!(s.bytes() <= budget, "bytes {} > budget {budget}", s.bytes());
        assert!(matches!(s.load("sim", "b"), StoreRead::Miss), "LRU victim must be b");
        assert!(matches!(s.load("sim", "a"), StoreRead::Hit(_)));
        assert!(s.counters.evictions.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn a_reopened_store_evicts_what_it_has_touched_before_what_it_has_not() {
        // A restarted engine replays its cold run: it reads `a`, holds it
        // in memory, and will read `b` and `c` next. Making room for a
        // new write must take `a`, not `b` or `c`, one of which plain
        // LRU (in the open-time scan's order) would pick.
        let dir = tmp_dir("touched");
        let p = payload_of_size(1000);
        {
            let s = Store::open(&dir).unwrap();
            for key in ["a", "b", "c"] {
                s.save("eval", key, &p).unwrap();
            }
        }
        let s = Store::open_with(&dir, Some(4096), None).unwrap();
        assert!(matches!(s.load("eval", "a"), StoreRead::Hit(_)));
        s.save("eval", "d", &p).unwrap();
        assert!(s.bytes() <= 4096);
        assert!(!s.path("eval", "a").exists(), "the touched entry must go first");
        for key in ["b", "c", "d"] {
            assert!(matches!(s.load("eval", key), StoreRead::Hit(_)), "eval/{key} was evicted");
        }
        assert_eq!(s.counters.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eviction_takes_eval_before_sim() {
        let dir = tmp_dir("rank-sim");
        let s = Store::open_with(&dir, Some(8192), None).unwrap();
        let p = payload_of_size(1000);
        // The sim artifacts are the oldest, so pure LRU would take them
        // first; every eval artifact must go before any of them.
        let mut sims = vec!["s0".to_string(), "s1".to_string()];
        for key in &sims {
            s.save("sim", key, &p).unwrap();
        }
        let evals = ["e1", "e2"];
        for key in evals {
            s.save("eval", key, &p).unwrap();
        }
        while evals.iter().any(|key| s.path("eval", key).exists()) {
            let key = format!("s{}", sims.len());
            s.save("sim", &key, &p).unwrap();
            sims.push(key);
            assert!(s.bytes() <= 8192);
            for key in &sims {
                assert!(s.path("sim", key).exists(), "sim/{key} went before an eval");
            }
        }
        assert!(s.counters.evictions.load(Ordering::Relaxed) >= 2);
        assert!(matches!(s.load("sim", "s0"), StoreRead::Hit(_)));
        // A reopened store indexes the sim artifacts too.
        assert_eq!(Store::open(&dir).unwrap().bytes(), s.bytes());
    }

    #[test]
    fn pinned_keys_are_never_evicted() {
        let dir = tmp_dir("pin");
        let s = Store::open_with(&dir, Some(4096), None).unwrap();
        let p = payload_of_size(1000);
        s.save("sim", "hold", &p).unwrap();
        let _pin = s.pin("sim", "hold");
        s.save("sim", "x1", &p).unwrap();
        s.save("sim", "x2", &p).unwrap();
        s.save("sim", "x3", &p).unwrap();
        s.save("sim", "x4", &p).unwrap();
        assert!(s.bytes() <= 4096);
        assert!(
            matches!(s.load("sim", "hold"), StoreRead::Hit(_)),
            "a pinned in-flight key must survive eviction pressure"
        );
    }

    #[test]
    fn oversized_artifact_is_refused_not_stored() {
        let dir = tmp_dir("oversize");
        let s = Store::open_with(&dir, Some(256), None).unwrap();
        let e = s.save("sim", "big", &payload_of_size(4096)).unwrap_err();
        assert!(e.contains("cache budget"), "got: {e}");
        assert!(matches!(s.load("sim", "big"), StoreRead::Miss));
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.counters.save_failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reopening_over_budget_tree_evicts_down_to_ceiling() {
        let dir = tmp_dir("reopen");
        {
            let s = Store::open(&dir).unwrap();
            for k in ["a", "b", "c", "d", "e", "f"] {
                s.save("sim", k, &payload_of_size(1000)).unwrap();
            }
        }
        let s = Store::open_with(&dir, Some(3000), None).unwrap();
        assert!(s.bytes() <= 3000, "bytes {} must respect the new budget", s.bytes());
        assert!(s.counters.evictions.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn injected_enospc_fails_save_but_store_stays_consistent() {
        let dir = tmp_dir("enospc");
        let mut faults = StoreFaults::seeded(42);
        faults.enospc_pct = 100;
        let s = Store::open_with(&dir, None, Some(faults)).unwrap();
        let e = s.save("sim", "k", &payload_of_size(100)).unwrap_err();
        assert!(e.contains("no space left"), "got: {e}");
        assert!(matches!(s.load("sim", "k"), StoreRead::Miss));
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn injected_torn_write_is_caught_at_read_time() {
        let dir = tmp_dir("torn");
        let mut faults = StoreFaults::seeded(7);
        faults.torn_write_pct = 100;
        let s = Store::open_with(&dir, None, Some(faults)).unwrap();
        let e = s.save("sim", "k", &payload_of_size(100)).unwrap_err();
        assert!(e.contains("torn write"), "got: {e}");
        // The torn file landed at the final path; verification catches it.
        assert!(matches!(s.load("sim", "k"), StoreRead::Corrupt(_)));
        assert!(matches!(s.load("sim", "k"), StoreRead::Miss), "quarantined after detection");
    }

    #[test]
    fn injected_orphan_tmp_is_swept_on_next_open() {
        let dir = tmp_dir("orphan");
        let mut faults = StoreFaults::seeded(9);
        faults.orphan_tmp_pct = 100;
        {
            let s = Store::open_with(&dir, None, Some(faults)).unwrap();
            assert!(s.save("sim", "k", &payload_of_size(100)).is_err());
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.counters.tmp_swept.load(Ordering::Relaxed), 1);
        assert!(matches!(s.load("sim", "k"), StoreRead::Miss));
    }
}
