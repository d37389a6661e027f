//! Tier 1: append-only on-disk segments of compressed state tuples.
//!
//! A segment is written exactly once — when the tiered store drains its
//! sealed entries past the memory budget (or a checkpoint reloads one)
//! — and is immutable afterwards; the only subsequent access is a
//! positional read of a single record's payload to *confirm* a
//! fingerprint match against the full encoding (see [`super::index`]).
//! Records use the shared framing of [`crate::state::encode`]:
//!
//! ```text
//! RSEG <version>                        (header, put_header)
//! [fingerprint][epoch][len][enc bytes]  (per record, put_record)
//! ...
//! ```
//!
//! Segments are numbered `seg-<id>.bin` in creation order and synced to
//! disk on write, so a checkpoint manifest can reference them by id and
//! byte length alone: after a crash, files longer than their recorded
//! length (a partially-written successor segment) are simply truncated
//! or ignored by the resume scan.

use super::SpillDir;
use crate::state::encode::{
    check_header, put_header, put_record, read_record, ByteReader, SEGMENT_MAGIC,
};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

/// Where one state encoding lives on disk: segment id, absolute payload
/// offset, payload length, and the epoch it was sealed in. Entries of
/// the in-memory fingerprint index.
#[derive(Clone, Copy, Debug)]
pub struct DiskRef {
    /// Segment id (index into the segment list).
    pub seg: u32,
    /// Byte offset of the encoding within the segment file.
    pub off: u64,
    /// Stored record length in bytes (the compressed tuple's length).
    pub len: u32,
    /// The state's *raw* canonical-encoding length, decoded from the
    /// tuple's prefix. Keeps `Report::visited_bytes` a logical total
    /// independent of the stored representation.
    pub raw: u32,
    /// Frontier level the state was sealed in.
    pub epoch: u32,
}

/// Manifest-facing metadata of one sealed segment.
#[derive(Clone, Copy, Debug)]
pub struct SegmentMeta {
    /// Segment id (`seg-<id>.bin`).
    pub id: u32,
    /// Committed byte length.
    pub byte_len: u64,
    /// Number of records.
    pub entries: u64,
}

struct Segment {
    file: File,
    meta: SegmentMeta,
}

/// The ordered collection of sealed segment files under one spill dir.
/// Slots are `None` for segments retired by compaction — ids stay
/// stable (they are baked into every [`DiskRef`] the index holds for
/// *other* segments), only the retired slot's refs get remapped.
pub(crate) struct SegmentStore {
    dir: Arc<SpillDir>,
    segs: RwLock<Vec<Option<Segment>>>,
    /// Serializes positional reads on non-unix hosts (see [`pread`]).
    #[allow(dead_code)]
    read_lock: Mutex<()>,
}

#[cfg(unix)]
fn pread(store: &SegmentStore, f: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    let _ = store;
    std::os::unix::fs::FileExt::read_exact_at(f, buf, off)
}

#[cfg(not(unix))]
fn pread(store: &SegmentStore, f: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    // No positional-read API: seek-then-read under a store-wide lock.
    let _guard = store.read_lock.lock().unwrap();
    let mut f = f;
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)
}

impl SegmentStore {
    pub(crate) fn new(dir: Arc<SpillDir>) -> Self {
        SegmentStore {
            dir,
            segs: RwLock::new(Vec::new()),
            read_lock: Mutex::new(()),
        }
    }

    fn seg_path(&self, id: u32) -> PathBuf {
        self.dir.path().join(format!("seg-{id}.bin"))
    }

    /// The raw canonical-encoding length a stored tuple stands for.
    fn raw_of(enc: &[u8]) -> u32 {
        crate::state::intern::raw_len_of(enc).expect("compressed tuple prefix") as u32
    }

    /// Write `records` (`(fingerprint, epoch, enc)` triples, already in
    /// deterministic order) as the next segment, returning the index
    /// entries to publish. The file is synced before the segment
    /// becomes visible, so checkpoint manifests can reference it.
    pub(crate) fn write_segment(
        &self,
        records: &[(u64, u32, Box<[u8]>)],
    ) -> io::Result<Vec<(u64, DiskRef)>> {
        let id = self.segs.read().unwrap().len() as u32;
        let mut buf = Vec::new();
        put_header(&mut buf, SEGMENT_MAGIC);
        let mut refs = Vec::with_capacity(records.len());
        for (fp, epoch, enc) in records {
            let before = buf.len();
            put_record(&mut buf, *fp, *epoch, enc);
            let off = (buf.len() - enc.len()) as u64;
            debug_assert!(before < buf.len());
            refs.push((
                *fp,
                DiskRef {
                    seg: id,
                    off,
                    len: enc.len() as u32,
                    raw: Self::raw_of(enc),
                    epoch: *epoch,
                },
            ));
        }
        let path = self.seg_path(id);
        // Read+write: the same handle later serves positional reads in
        // `confirm` (a write-only fd would fail them with EBADF).
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        let mut segs = self.segs.write().unwrap();
        segs.push(Some(Segment {
            file,
            meta: SegmentMeta {
                id,
                byte_len: buf.len() as u64,
                entries: records.len() as u64,
            },
        }));
        Ok(refs)
    }

    /// Reopen and scan an existing segment (resume path): parse the
    /// first `byte_len` bytes — anything beyond is a torn post-crash
    /// tail and is truncated away — and return its index entries.
    /// Segments must be reopened in id order.
    pub(crate) fn reopen(&self, id: u32, byte_len: u64) -> io::Result<Vec<(u64, DiskRef)>> {
        let path = self.seg_path(id);
        let mut file = File::options().read(true).write(true).open(&path)?;
        if file.metadata()?.len() > byte_len {
            file.set_len(byte_len)?;
        }
        let mut buf = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        Read::by_ref(&mut file)
            .take(byte_len)
            .read_to_end(&mut buf)?;
        if buf.len() as u64 != byte_len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "segment {id}: {} bytes on disk, manifest says {byte_len}",
                    buf.len()
                ),
            ));
        }
        let mut r = ByteReader::new(&buf);
        if !check_header(&mut r, SEGMENT_MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("segment {id}: bad header"),
            ));
        }
        let mut refs = Vec::new();
        while r.remaining() > 0 {
            let Some((fp, epoch, off, enc)) = read_record(&mut r) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment {id}: torn record at byte {}", r.pos()),
                ));
            };
            refs.push((
                fp,
                DiskRef {
                    seg: id,
                    off: off as u64,
                    len: enc.len() as u32,
                    raw: Self::raw_of(enc),
                    epoch,
                },
            ));
        }
        let mut segs = self.segs.write().unwrap();
        // Ids may be sparse after compaction retired predecessors; pad
        // the gap with tombstones so ids stay slot indices.
        assert!(segs.len() as u32 <= id, "segments reopen in id order");
        while (segs.len() as u32) < id {
            segs.push(None);
        }
        segs.push(Some(Segment {
            file,
            meta: SegmentMeta {
                id,
                byte_len,
                entries: refs.len() as u64,
            },
        }));
        Ok(refs)
    }

    /// Confirm that the record at `r` stores exactly `enc` — the
    /// collision check behind every index hit. Lengths are compared by
    /// the caller via [`DiskRef::len`] before paying for the read.
    pub(crate) fn confirm(&self, r: &DiskRef, enc: &[u8]) -> io::Result<bool> {
        debug_assert_eq!(r.len as usize, enc.len());
        let segs = self.segs.read().unwrap();
        let seg = segs[r.seg as usize]
            .as_ref()
            .expect("confirm against a retired segment (index ref not remapped?)");
        let mut buf = vec![0u8; r.len as usize];
        pread(self, &seg.file, &mut buf, r.off)?;
        Ok(buf == enc)
    }

    /// Merge the given live segments into one new segment, returning
    /// `((old seg, old off) -> new ref)` remap pairs for the index.
    /// Victim slots are tombstoned in memory; their **files** stay on
    /// disk untouched — the previous checkpoint manifest still
    /// references them, so they may only be deleted after the next
    /// manifest rename commits (the checkpoint writer's GC does that).
    /// The merged segment is written and synced before any victim is
    /// retired, so a crash at any instant leaves a fully valid store.
    pub(crate) fn compact(&self, victims: &[u32]) -> io::Result<Vec<((u32, u64), DiskRef)>> {
        let corrupt = |id: u32, what: &str| {
            io::Error::new(io::ErrorKind::InvalidData, format!("segment {id}: {what}"))
        };
        let mut segs = self.segs.write().unwrap();
        let new_id = segs.len() as u32;
        let mut buf = Vec::new();
        put_header(&mut buf, SEGMENT_MAGIC);
        let mut remap = Vec::new();
        let mut entries = 0u64;
        for &vid in victims {
            let seg = segs[vid as usize]
                .as_ref()
                .expect("compacting a live segment");
            let mut vbuf = vec![0u8; seg.meta.byte_len as usize];
            pread(self, &seg.file, &mut vbuf, 0)?;
            let mut r = ByteReader::new(&vbuf);
            if !check_header(&mut r, SEGMENT_MAGIC) {
                return Err(corrupt(vid, "bad header"));
            }
            while r.remaining() > 0 {
                let Some((fp, epoch, old_off, enc)) = read_record(&mut r) else {
                    return Err(corrupt(vid, "torn record"));
                };
                put_record(&mut buf, fp, epoch, enc);
                let off = (buf.len() - enc.len()) as u64;
                remap.push((
                    (vid, old_off as u64),
                    DiskRef {
                        seg: new_id,
                        off,
                        len: enc.len() as u32,
                        raw: Self::raw_of(enc),
                        epoch,
                    },
                ));
                entries += 1;
            }
        }
        let path = self.seg_path(new_id);
        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        segs.push(Some(Segment {
            file,
            meta: SegmentMeta {
                id: new_id,
                byte_len: buf.len() as u64,
                entries,
            },
        }));
        for &vid in victims {
            segs[vid as usize] = None;
        }
        Ok(remap)
    }

    /// Number of live (non-retired) segments.
    pub(crate) fn count(&self) -> usize {
        self.segs.read().unwrap().iter().flatten().count()
    }

    /// Metadata of every live segment, in id order.
    pub(crate) fn meta(&self) -> Vec<SegmentMeta> {
        self.segs
            .read()
            .unwrap()
            .iter()
            .flatten()
            .map(|s| s.meta)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<(u64, u32, Box<[u8]>)> {
        (0..n)
            .map(|i| {
                let enc: Vec<u8> = (0..=i as u8).collect();
                (i as u64 * 17, (i % 3) as u32, enc.into_boxed_slice())
            })
            .collect()
    }

    #[test]
    fn segment_roundtrip_and_confirm() {
        let dir = SpillDir::temp().unwrap();
        let store = SegmentStore::new(dir);
        let rs = records(5);
        let refs = store.write_segment(&rs).unwrap();
        assert_eq!(store.count(), 1);
        for ((fp, epoch, enc), (ifp, r)) in rs.iter().zip(&refs) {
            assert_eq!(fp, ifp);
            assert_eq!(*epoch, r.epoch);
            assert!(store.confirm(r, enc).unwrap());
            let mut other = enc.to_vec();
            other[0] ^= 0xff;
            assert!(!store.confirm(r, &other).unwrap());
        }
    }

    #[test]
    fn compaction_merges_and_remaps_without_deleting_victim_files() {
        let dir = SpillDir::temp().unwrap();
        let store = SegmentStore::new(dir.clone());
        let rs = records(6);
        let refs_a = store.write_segment(&rs[..3]).unwrap();
        let refs_b = store.write_segment(&rs[3..]).unwrap();
        assert_eq!(store.count(), 2);
        let remap = store.compact(&[0, 1]).unwrap();
        assert_eq!(remap.len(), 6);
        assert_eq!(store.count(), 1, "two victims retired, one merged");
        assert_eq!(store.meta()[0].id, 2, "merged segment takes the next id");
        assert_eq!(store.meta()[0].entries, 6);
        // Every old ref remaps to a confirmable position in the merged
        // segment, with epoch and lengths preserved.
        let lookup: std::collections::HashMap<(u32, u64), DiskRef> = remap.into_iter().collect();
        for ((_, r), (_, _, enc)) in refs_a.iter().chain(&refs_b).zip(&rs) {
            let nr = lookup[&(r.seg, r.off)];
            assert_eq!(
                (nr.seg, nr.epoch, nr.len, nr.raw),
                (2, r.epoch, r.len, r.raw)
            );
            assert!(store.confirm(&nr, enc).unwrap());
        }
        // Victim files survive until the checkpoint GC deletes them.
        assert!(dir.path().join("seg-0.bin").exists());
        assert!(dir.path().join("seg-1.bin").exists());
        // The next write skips the retired slots' ids.
        let refs_c = store.write_segment(&rs[..1]).unwrap();
        assert_eq!(refs_c[0].1.seg, 3);
    }

    #[test]
    fn reopen_pads_retired_slots_after_compaction() {
        let dir = SpillDir::temp().unwrap();
        let (meta, rs) = {
            let store = SegmentStore::new(dir.clone());
            let rs = records(4);
            store.write_segment(&rs[..2]).unwrap();
            store.write_segment(&rs[2..]).unwrap();
            store.compact(&[0, 1]).unwrap();
            (store.meta()[0], rs)
        };
        // A manifest written after compaction references only seg-2.
        let store = SegmentStore::new(dir);
        let refs = store.reopen(meta.id, meta.byte_len).unwrap();
        assert_eq!(refs.len(), 4);
        assert_eq!(store.count(), 1);
        for ((_, r), (_, _, enc)) in refs.iter().zip(&rs) {
            assert!(store.confirm(r, enc).unwrap());
        }
        // Ids keep growing past the reopened slot.
        assert_eq!(store.write_segment(&rs[..1]).unwrap()[0].1.seg, 3);
    }

    #[test]
    fn reopen_rebuilds_refs_and_truncates_torn_tails() {
        let dir = SpillDir::temp().unwrap();
        let (path, meta, rs) = {
            let store = SegmentStore::new(dir.clone());
            let rs = records(4);
            store.write_segment(&rs).unwrap();
            let meta = store.meta()[0];
            (dir.path().join("seg-0.bin"), meta, rs)
        };
        // Simulate a torn post-crash tail past the manifest length.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&[0xab; 7])
            .unwrap();
        let store = SegmentStore::new(dir);
        let refs = store.reopen(meta.id, meta.byte_len).unwrap();
        assert_eq!(refs.len(), rs.len());
        for ((_, _, enc), (_, r)) in rs.iter().zip(&refs) {
            assert!(store.confirm(r, enc).unwrap());
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), meta.byte_len);
    }
}
