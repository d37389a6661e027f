//! Tiered, spillable, checkpointable visited/frontier storage for the
//! explicit-state frontier engines.
//!
//! The module tree splits the storage subsystem by concern:
//!
//! - [`mem`] — tier 0: the lock-striped in-memory [`VisitedStore`] with
//!   the jobs-invariant rank admission protocol (previously
//!   `search::visited`), now tracking the *epoch* (frontier level) each
//!   entry was sealed in.
//! - [`disk`] — tier 1: append-only on-disk segments of canonical state
//!   encodings, written once and then only read back for full-state
//!   collision confirmation.
//! - [`index`] — the per-stripe in-memory fingerprint index over tier 1:
//!   membership probes stay O(1) hash lookups; a disk read happens only
//!   when a fingerprint actually matches.
//! - [`bloom`] — the lock-free Bloom prefilter in front of the index:
//!   the common probe-miss is answered without taking any lock, and the
//!   per-segment filters are persisted (and validated) across
//!   checkpoints.
//! - [`spool`] — bounded-memory FIFO spooling of the level-synchronous
//!   frontier: excess entries spill to disk in rank order and are
//!   re-admitted deterministically.
//! - [`checkpoint`] — periodic level-boundary checkpoints (sealed
//!   segments + frontier spool + report counters behind a versioned
//!   manifest) and the resume path.
//!
//! [`TieredStore`] composes tiers 0 and 1 behind the same admission
//! protocol the in-memory store exposes, so the frontier search in
//! [`super::stateful`] is oblivious to where a sealed state resides.
//!
//! Every record is a collapse-compressed component-ID tuple
//! ([`crate::state::GlobalState::fingerprint_and_intern`]) whose leading
//! varint is the raw canonical-encoding length it stands for; the
//! stores read it to report logical byte totals
//! ([`TieredStore::bytes`]) next to the stored footprint
//! ([`TieredStore::stored_bytes`]). Membership is `memcmp` on the
//! tuples, which is state equality under one interner.
//!
//! ## Why spilling cannot change a report
//!
//! Only **sealed** entries ever move to disk. Unsealed candidates stay
//! in tier 0 because their rank is still mutable (a smaller rank may
//! override them mid-round); a sealed entry's only observable property
//! is *membership* (plus its seal epoch), which both tiers answer
//! identically. `len()`/`bytes()` report logical totals across tiers,
//! so even `Report::visited_bytes`/`visited_states` match the unbounded
//! run byte for byte.

pub mod bloom;
pub mod checkpoint;
pub mod disk;
pub mod index;
pub mod mem;
pub mod spool;

pub use mem::{VisitedStore, STRIPES};
pub use spool::{FrontierSpool, Spoolable};

use bloom::Prefilter;
use disk::{DiskRef, SegmentStore};
use index::FpIndex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A shard-lexicographic discovery rank: `(frontier item, successor)`
/// packed so that `u64` ordering is the lexicographic order the
/// sequential search discovers successors in.
pub type Rank = u64;

/// Pack a discovery rank.
#[inline]
pub fn rank(item: usize, succ: usize) -> Rank {
    debug_assert!(item < (1 << 32) && succ < (1 << 32));
    ((item as u64) << 32) | succ as u64
}

/// A directory used for spill segments, frontier spool files, and
/// checkpoints. Temp-created directories (`SpillDir::temp`) are removed
/// on drop; user-supplied checkpoint directories are left alone.
pub struct SpillDir {
    path: PathBuf,
    owned: bool,
}

static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillDir {
    /// Use (and create if missing) a caller-owned directory — not
    /// removed on drop.
    pub fn at(path: &Path) -> io::Result<Arc<SpillDir>> {
        std::fs::create_dir_all(path)?;
        Ok(Arc::new(SpillDir {
            path: path.to_path_buf(),
            owned: false,
        }))
    }

    /// Create a fresh process-unique temp directory, removed on drop.
    pub fn temp() -> io::Result<Arc<SpillDir>> {
        let path = std::env::temp_dir().join(format!(
            "reclose-spill-{}-{}",
            std::process::id(),
            TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Arc::new(SpillDir { path, owned: true }))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Tier 1: the segment files plus the fingerprint index over them.
struct Tier1 {
    segs: SegmentStore,
    index: FpIndex,
    prefilter: Prefilter,
    dir: Arc<SpillDir>,
}

/// The two-tier visited store: tier 0 is the lock-striped in-memory
/// [`VisitedStore`]; tier 1 is append-only on-disk segments behind an
/// in-memory fingerprint index. When tier 0's payload exceeds the
/// budget at a level boundary, all sealed entries are drained to a new
/// segment ([`TieredStore::end_of_level`]); candidates stay resident
/// because their ranks are still mutable. Unbounded stores (budget
/// `usize::MAX`, no spill dir) never touch the filesystem.
pub struct TieredStore {
    mem: VisitedStore,
    budget: usize,
    tier1: Option<Tier1>,
    peak_mem: AtomicUsize,
    spilled: AtomicUsize,
    compacted: AtomicUsize,
}

impl TieredStore {
    /// A store holding at most ~`budget` stored bytes in memory,
    /// spilling sealed entries into segments under `dir`. With no
    /// `dir`, the budget is ignored and the store is purely in-memory.
    pub fn new(budget: usize, dir: Option<Arc<SpillDir>>) -> Self {
        TieredStore {
            mem: VisitedStore::new(STRIPES),
            budget,
            tier1: dir.map(|d| Tier1 {
                segs: SegmentStore::new(Arc::clone(&d)),
                index: FpIndex::new(STRIPES),
                prefilter: Prefilter::new(),
                dir: d,
            }),
            peak_mem: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            compacted: AtomicUsize::new(0),
        }
    }

    /// Whether `enc` is present on disk, optionally only when sealed
    /// before `epoch_bound`. The index keeps probes O(1): disk is read
    /// only to confirm a fingerprint match against the full encoding.
    fn on_disk(&self, hash: u64, enc: &[u8], epoch_bound: Option<u32>) -> bool {
        let Some(t1) = &self.tier1 else { return false };
        // The prefilter answers the common miss lock-free; a "no" is
        // definitive for any epoch bound (false negatives impossible).
        if !t1.prefilter.may_contain(hash) {
            return false;
        }
        t1.index.candidates(hash, |r: &DiskRef| {
            epoch_bound.is_none_or(|b| r.epoch < b)
                && r.len as usize == enc.len()
                && t1.segs.confirm(r, enc).expect("tier-1 segment read")
        })
    }

    /// Offer a candidate discovery of the state encoded as `enc` at
    /// `rank` — the per-item reference for
    /// [`TieredStore::insert_batch`]. Keeps the smallest rank per state;
    /// sealed entries (whatever tier they live in) always win.
    pub fn admit(&self, hash: u64, enc: &[u8], rank: Rank) {
        // A state on disk is sealed by definition: the candidate loses
        // regardless of rank, so tier 0 never re-admits it.
        if self.on_disk(hash, enc, None) {
            return;
        }
        self.mem.admit(hash, enc, rank);
    }

    /// Seal and return `true` iff `(enc, rank)` is the committed winner
    /// of the round, stamping it with the frontier `epoch` — the
    /// per-item reference for [`TieredStore::seal_batch`].
    pub fn seal_if_winner(&self, hash: u64, enc: &[u8], rank: Rank, epoch: u32) -> bool {
        // Winners are always tier-0 residents: disk-sealed states are
        // filtered at admission, so no bucket scan on disk is needed.
        self.mem.seal_if_winner(hash, enc, rank, epoch)
    }

    /// Whether the state is sealed with an epoch `< epoch_bound` — the
    /// ignoring-proviso probe. Bounding by epoch (not "any sealed")
    /// lets a level be processed in memory-bounded chunks: entries
    /// sealed by earlier chunks of the *same* level are invisible, so
    /// the probe sees exactly the set a single-chunk (unbounded) run
    /// would — the report stays byte-identical for any memory limit.
    pub fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.mem.contains_sealed_before(hash, enc, epoch_bound)
            || self.on_disk(hash, enc, Some(epoch_bound))
    }

    /// Number of states stored across all tiers (sealed or candidate).
    pub fn len(&self) -> usize {
        self.mem.len() + self.tier1.as_ref().map_or(0, |t| t.index.len())
    }

    /// True when no state was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw canonical-encoding bytes the stored states stand for, across
    /// all tiers — the logical total behind `Report::visited_bytes`.
    pub fn bytes(&self) -> usize {
        self.mem.bytes() + self.tier1.as_ref().map_or(0, |t| t.index.bytes())
    }

    /// Seal the state unconditionally (the initial state's admission).
    pub fn seal(&self, hash: u64, enc: &[u8], epoch: u32) {
        self.mem.seal(hash, enc, epoch);
    }

    /// Level-boundary maintenance: record the tier-0 peak and, when the
    /// in-memory footprint exceeds the budget, drain every sealed entry
    /// into a fresh tier-1 segment. The budget bounds *resident* bytes
    /// ([`VisitedStore::stored_bytes`]), not the raw bytes the tuples
    /// stand for.
    pub fn end_of_level(&self) -> io::Result<()> {
        self.peak_mem
            .fetch_max(self.mem.stored_bytes(), Ordering::Relaxed);
        if self.mem.stored_bytes() <= self.budget {
            return Ok(());
        }
        self.spill_sealed()
    }

    /// Drain all sealed tier-0 entries into a new segment (no-op when
    /// nothing is sealed or there is no spill directory).
    pub fn spill_sealed(&self) -> io::Result<()> {
        let Some(t1) = &self.tier1 else { return Ok(()) };
        let records = self.mem.drain_sealed();
        if records.is_empty() {
            return Ok(());
        }
        let refs = t1.segs.write_segment(&records)?;
        let seg = refs.first().map(|(_, r)| r.seg);
        let fps: Vec<u64> = refs.iter().map(|&(fp, _)| fp).collect();
        for (fp, r) in refs {
            t1.index.insert(fp, r);
        }
        if let Some(seg) = seg {
            t1.prefilter.add_segment(seg, &fps, &t1.index);
        }
        self.spilled.fetch_add(records.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Load one pre-existing segment file (resume path): scan it,
    /// register it with the segment store, and index its records.
    pub(crate) fn load_segment(&self, id: u32, byte_len: u64) -> io::Result<usize> {
        let t1 = self
            .tier1
            .as_ref()
            .expect("resume requires a spill directory");
        let refs = t1.segs.reopen(id, byte_len)?;
        let n = refs.len();
        let fps: Vec<u64> = refs.iter().map(|&(fp, _)| fp).collect();
        for (fp, r) in refs {
            t1.index.insert(fp, r);
        }
        t1.prefilter
            .load_segment(id, &fps, t1.dir.path(), &t1.index);
        self.spilled.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Insert an already-sealed entry into tier 0 (resume path).
    pub(crate) fn load_sealed(&self, hash: u64, enc: Box<[u8]>, epoch: u32) {
        self.mem.insert_sealed(hash, enc, epoch);
    }

    /// A sorted, non-destructive snapshot of every sealed tier-0 entry
    /// — what a checkpoint persists alongside the sealed segments.
    pub(crate) fn sealed_mem_snapshot(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        self.mem.sealed_snapshot()
    }

    /// Per-segment metadata for the checkpoint manifest.
    pub(crate) fn segment_meta(&self) -> Vec<disk::SegmentMeta> {
        self.tier1.as_ref().map_or_else(Vec::new, |t| t.segs.meta())
    }

    /// Tier-0 resident payload bytes right now.
    pub fn mem_bytes(&self) -> usize {
        self.mem.stored_bytes()
    }

    /// Largest tier-0 resident payload observed at any level boundary.
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_mem
            .fetch_max(self.mem.stored_bytes(), Ordering::Relaxed);
        self.peak_mem.load(Ordering::Relaxed)
    }

    /// Entries moved to (or reloaded from) tier 1 over the store's life.
    pub fn spilled_entries(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Number of live tier-1 segment files.
    pub fn segment_count(&self) -> usize {
        self.tier1.as_ref().map_or(0, |t| t.segs.count())
    }

    /// Bytes the store actually holds across tiers — the compressed
    /// footprint (the numerator of the `--stats` dedup ratio).
    pub fn stored_bytes(&self) -> usize {
        self.mem.stored_bytes() + self.tier1.as_ref().map_or(0, |t| t.index.stored_bytes())
    }

    /// Batch [`TieredStore::admit`] over one chunk's successors.
    /// Disk-resident states are filtered exactly like per-item `admit`
    /// (a spilled state is sealed by definition), but the batch shape
    /// pays off twice: the prefilter dismisses most items without an
    /// index lookup, and the few disk confirms that remain are read in
    /// `(segment, offset)` order — sequential positional reads instead
    /// of a random walk. The survivors go through
    /// [`VisitedStore::insert_batch`], which groups them by stripe so
    /// each stripe lock is taken once per run instead of once per
    /// successor. Result-equivalent to per-item admission in any order
    /// because admission keeps the *minimum* rank per state.
    pub fn insert_batch(&self, items: &mut Vec<(u64, Rank, &[u8])>) {
        if let Some(t1) = &self.tier1 {
            let mut cands: Vec<(u32, DiskRef)> = Vec::new();
            let mut refs = Vec::new();
            for (ix, &(h, _, e)) in items.iter().enumerate() {
                if !t1.prefilter.may_contain(h) {
                    continue;
                }
                refs.clear();
                t1.index.collect_refs(h, &mut refs);
                cands.extend(
                    refs.iter()
                        .filter(|r| r.len as usize == e.len())
                        .map(|&r| (ix as u32, r)),
                );
            }
            if !cands.is_empty() {
                cands.sort_unstable_by_key(|&(_, r)| (r.seg, r.off));
                let mut dead = vec![false; items.len()];
                for (ix, r) in cands {
                    let ix = ix as usize;
                    if !dead[ix]
                        && t1
                            .segs
                            .confirm(&r, items[ix].2)
                            .expect("tier-1 segment read")
                    {
                        dead[ix] = true;
                    }
                }
                let mut ix = 0;
                items.retain(|_| {
                    ix += 1;
                    !dead[ix - 1]
                });
            }
        }
        self.mem.insert_batch(items);
    }

    /// Batch [`TieredStore::seal_if_winner`] over one chunk's commit
    /// probes, preserving commit order per stripe. Winners are always
    /// tier-0 residents (disk-sealed states are filtered at admission),
    /// so this delegates to [`VisitedStore::seal_batch`].
    pub fn seal_batch(&self, probes: &[(u64, Rank, &[u8])], epoch: u32) -> Vec<bool> {
        self.mem.seal_batch(probes, epoch)
    }

    /// Tier-0 batch-path observability counters:
    /// `(batch calls, items batched, lock acquisitions avoided)`.
    pub fn batch_stats(&self) -> (usize, usize, usize) {
        self.mem.batch_stats()
    }

    /// Segments retired by [`TieredStore::compact_segments`] over the
    /// store's life.
    pub fn segments_compacted(&self) -> usize {
        self.compacted.load(Ordering::Relaxed)
    }

    /// Merge small live segments (≤ [`COMPACT_MAX_BYTES`], when at least
    /// two qualify) into one, remapping their index refs. Called by the
    /// checkpoint writer before it snapshots segment metadata: spills
    /// happen per level, so long out-of-core runs would otherwise
    /// accumulate hundreds of tiny segment files (and file handles).
    /// Victim *files* are left for the checkpoint GC — the previous
    /// manifest still references them until the new one commits.
    /// Returns the number of segments retired.
    pub fn compact_segments(&self) -> io::Result<usize> {
        let Some(t1) = &self.tier1 else { return Ok(0) };
        let victims: Vec<u32> = t1
            .segs
            .meta()
            .iter()
            .filter(|m| m.byte_len <= COMPACT_MAX_BYTES)
            .map(|m| m.id)
            .collect();
        if victims.len() < 2 {
            return Ok(0);
        }
        let moves: std::collections::HashMap<(u32, u64), DiskRef> =
            t1.segs.compact(&victims)?.into_iter().collect();
        t1.index.remap(&moves);
        if let Some(merged) = moves.values().next().map(|r| r.seg) {
            t1.prefilter.replace_segments(&victims, merged, &t1.index);
        }
        self.compacted.fetch_add(victims.len(), Ordering::Relaxed);
        Ok(victims.len())
    }

    /// Persist every dirty per-segment Bloom filter next to its segment
    /// (`seg-<id>.bloom`) — part of the checkpoint write. No-op without
    /// a spill directory.
    pub(crate) fn persist_prefilters(&self) -> io::Result<usize> {
        let Some(t1) = &self.tier1 else { return Ok(0) };
        t1.prefilter.persist(t1.dir.path())
    }

    /// Prefilter observability: `(probes, hits, rebuilds)` where a hit
    /// is a probe answered "definitely absent" without an index lookup
    /// and a rebuild is a persisted filter rejected at resume.
    pub fn prefilter_stats(&self) -> (usize, usize, usize) {
        self.tier1
            .as_ref()
            .map_or((0, 0, 0), |t| t.prefilter.stats())
    }
}

/// Segments no larger than this are compaction candidates. Large
/// segments are already IO-efficient; rewriting them would double the
/// checkpoint's write amplification for no handle savings.
pub(crate) const COMPACT_MAX_BYTES: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::intern::raw_len_of;
    use crate::state::{ComponentInterner, GlobalState};

    /// `n` distinct states (distinct channel contents) as the
    /// `(fingerprint, tuple)` keys the engines store.
    fn states(n: usize) -> Vec<(u64, Vec<u8>)> {
        let prog = cfgir::compile("chan c[9]; proc p() { send(c, 1); } process p();").unwrap();
        let base = GlobalState::initial(&prog);
        let interner = ComponentInterner::new();
        (0..n)
            .map(|i| {
                let mut s = base.clone();
                *s.object_mut(0) = crate::state::ObjState::Chan {
                    queue: (0..3)
                        .map(|j| crate::value::Value::Int((i * 3 + j) as i64))
                        .collect(),
                    cap: Some(9),
                };
                s.fingerprint_and_intern(&interner)
            })
            .collect()
    }

    #[test]
    fn tiered_batches_filter_disk_residents_like_per_item_admission() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(8);
        // Seal and spill the first half, so the batch mixes disk
        // residents (must be filtered) with genuinely new states.
        for (i, (h, e)) in ss[..4].iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            store.seal_if_winner(*h, e, rank(i, 0), 1);
        }
        store.end_of_level().unwrap();
        assert_eq!(store.spilled_entries(), 4);
        let mut batch: Vec<(u64, Rank, &[u8])> = ss
            .iter()
            .enumerate()
            .map(|(i, (h, e))| (*h, rank(10 + i, 0), e.as_slice()))
            .collect();
        store.insert_batch(&mut batch);
        assert_eq!(store.len(), 8, "disk residents not re-admitted");
        assert_eq!(store.mem.len(), 4, "only the new states are tier-0");
        let probes: Vec<(u64, Rank, &[u8])> = ss[4..]
            .iter()
            .enumerate()
            .map(|(i, (h, e))| (*h, rank(14 + i, 0), e.as_slice()))
            .collect();
        let flags = store.seal_batch(&probes, 2);
        assert_eq!(flags, vec![true; 4], "stored ranks all win");
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 3));
        }
        let (ops, items, _) = store.batch_stats();
        assert_eq!((ops, items), (2, 8), "4 admits + 4 seals batched");
    }

    #[test]
    fn spill_preserves_membership_and_totals() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir)); // budget 0: always spill
        let ss = states(20);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            assert!(store.seal_if_winner(*h, e, rank(i, 0), 1));
        }
        let raw_total: usize = ss.iter().map(|(_, e)| raw_len_of(e).unwrap()).sum();
        let stored_total: usize = ss.iter().map(|(_, e)| e.len()).sum();
        assert!(stored_total < raw_total, "tuples are smaller than raw");
        assert_eq!(store.len(), 20);
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        store.end_of_level().unwrap();
        assert_eq!(store.mem_bytes(), 0, "all sealed entries spilled");
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.spilled_entries(), 20);
        // Logical and stored totals are unchanged by the spill...
        assert_eq!(store.len(), 20);
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        // ...and so are membership answers.
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 2));
            assert!(!store.contains_sealed_before(*h, e, 1), "epoch bound");
            // Re-admission of a disk-sealed state is a no-op: it can
            // never win a later round.
            store.admit(*h, e, rank(0, 0));
            assert!(!store.seal_if_winner(*h, e, rank(0, 0), 2));
        }
        assert_eq!(store.mem_bytes(), 0, "re-admissions filtered by tier 1");
    }

    #[test]
    fn unsealed_candidates_never_spill() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(4);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
        }
        store.end_of_level().unwrap();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.len(), 4, "candidates stay in tier 0");
        // Their ranks are still mutable after the (empty) spill.
        let (h, e) = &ss[0];
        store.admit(*h, e, rank(0, 0));
        assert!(store.seal_if_winner(*h, e, rank(0, 0), 1));
    }

    #[test]
    fn colliding_fingerprints_confirm_against_disk_bytes() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(2);
        let (a, b) = (&ss[0].1, &ss[1].1);
        let fake = 7u64; // same fingerprint for two distinct states
        store.admit(fake, a, rank(0, 0));
        assert!(store.seal_if_winner(fake, a, rank(0, 0), 1));
        store.end_of_level().unwrap(); // `a` now lives on disk
        assert!(store.contains_sealed_before(fake, a, 2));
        assert!(
            !store.contains_sealed_before(fake, b, 2),
            "index hit, disk confirmation miss"
        );
        // `b` is admissible and sealable despite the index collision.
        store.admit(fake, b, rank(1, 0));
        assert!(store.seal_if_winner(fake, b, rank(1, 0), 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compact_segments_is_transparent_to_membership() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(9);
        for (level, chunk) in ss.chunks(3).enumerate() {
            for (i, (h, e)) in chunk.iter().enumerate() {
                store.admit(*h, e, rank(i, 0));
                assert!(store.seal_if_winner(*h, e, rank(i, 0), level as u32 + 1));
            }
            store.end_of_level().unwrap(); // budget 0: one segment per level
        }
        assert_eq!(store.segment_count(), 3);
        assert_eq!(store.compact_segments().unwrap(), 3);
        assert_eq!(store.segment_count(), 1, "three victims, one merged");
        assert_eq!(store.segments_compacted(), 3);
        assert_eq!((store.len(), store.spilled_entries()), (9, 9));
        for (level, chunk) in ss.chunks(3).enumerate() {
            for (h, e) in chunk {
                assert!(
                    store.contains_sealed_before(*h, e, level as u32 + 2),
                    "remapped refs confirm at the preserved epoch"
                );
                assert!(!store.contains_sealed_before(*h, e, level as u32 + 1));
            }
        }
        // A second pass finds only the single merged segment: no-op.
        assert_eq!(store.compact_segments().unwrap(), 0);
    }

    #[test]
    fn unbounded_store_never_creates_files() {
        let store = TieredStore::new(usize::MAX, None);
        let ss = states(8);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            store.seal_if_winner(*h, e, rank(i, 0), 1);
        }
        store.end_of_level().unwrap();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.spilled_entries(), 0);
        assert_eq!(store.len(), 8);
        assert!(store.peak_mem_bytes() > 0);
    }
}
