//! The persistent result store behind `bas serve --state-dir`.
//!
//! Layout of a state directory:
//!
//! ```text
//! <state-dir>/
//!   journal.bas          append-only index of committed / evicted blobs
//!   blobs/<digest>.report   one checksum frame holding `bas-report/v1` bytes
//!   blobs/<digest>.events   one checksum frame holding `bas-events/v2` bytes
//!   quarantine/          corrupt blobs are moved here, never served
//! ```
//!
//! Every on-disk payload — each journal record and each blob — is wrapped
//! in the same **frame**: a 4-byte little-endian payload length, an 8-byte
//! little-endian [FNV-1a 64](https://en.wikipedia.org/wiki/Fowler–Noll–Vo_hash_function)
//! checksum of the payload, then the payload itself. The frame makes torn
//! writes and bit rot detectable without any external metadata.
//!
//! # Commit protocol and crash recovery
//!
//! A commit appends a `done` record (digest, kind, payload length,
//! payload checksum) to the journal and fsyncs it **before** the blob file
//! is written and fsynced. The journal is therefore the record of intent:
//!
//! * Crash before the journal fsync → neither record nor blob survive;
//!   the result is simply recomputed on resubmission.
//! * Crash between journal fsync and blob fsync → the journal references
//!   a missing or torn blob. [`Store::open`] detects the mismatch (file
//!   size + frame header against the journal's recorded length/checksum),
//!   moves whatever exists into `quarantine/`, logs it, and forgets the
//!   entry — it is never served.
//! * A torn journal tail (partial frame, or a frame whose checksum fails)
//!   is truncated at the last intact frame; every record before it stays
//!   valid.
//!
//! Bit rot that survives the open-time header check (a flip inside the
//! payload body) is caught at hydration time: [`Store::load`] re-hashes
//! the whole payload and quarantines on mismatch.
//!
//! Records for the same digest+kind may legitimately repeat (commit,
//! evict, commit again); replay is strictly **last-wins** in journal
//! order. The journal is compacted (rewritten from the live index) on
//! every open, so it cannot grow without bound across restarts.
//!
//! # Fault injection
//!
//! For deterministic crash testing (the CI `serve-persist` job), the
//! `BAS_SERVE_FAULT` environment variable arms a one-shot crash inside
//! the commit path:
//!
//! * `torn-blob` — abort the process after writing half of the next blob
//!   payload (journal already fsynced → a referenced, torn blob).
//! * `lost-blob` — abort after the journal fsync, before the blob file is
//!   created.
//!
//! Both simulate `kill -9` at the worst possible instant, deterministically.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::cache::Lru;

/// Frame header size: `u32` payload length + `u64` FNV-1a 64 checksum.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Upper bound on a journal record payload. Records are short ASCII lines;
/// anything claiming to be larger is corruption, not data.
const MAX_JOURNAL_RECORD: u32 = 4096;

/// FNV-1a 64 — the same hash family [`bas_core::Scenario::digest`] uses for
/// content addressing, here guarding on-disk payload integrity.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Wrap `payload` in a length+checksum frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of decoding one frame from the front of `buf`.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// An intact frame: its payload and the total bytes it consumed.
    Frame {
        /// The checksum-verified payload.
        payload: &'a [u8],
        /// Header + payload length — advance the cursor by this much.
        consumed: usize,
    },
    /// `buf` ends before the frame does — a torn tail.
    Torn,
    /// The frame is structurally invalid (length beyond `max_len`, or the
    /// checksum does not match the payload).
    Corrupt,
}

/// Decode one frame from the front of `buf`. `max_len` bounds how large a
/// payload a reader is willing to believe; a bit flip in the length field
/// must not make recovery read gigabytes.
pub fn decode_frame(buf: &[u8], max_len: u32) -> Decoded<'_> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Decoded::Torn;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let sum = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    if len > max_len {
        return Decoded::Corrupt;
    }
    let end = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < end {
        return Decoded::Torn;
    }
    let payload = &buf[FRAME_HEADER_BYTES..end];
    if fnv1a64(payload) != sum {
        return Decoded::Corrupt;
    }
    Decoded::Frame { payload, consumed: end }
}

/// Which artifact of a completed job a blob holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlobKind {
    /// `bas-report/v1` JSON — what `GET /v1/jobs/<id>/report` serves.
    Report,
    /// `bas-events/v2` NDJSON — the deterministic first-trial stream.
    Events,
}

impl BlobKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            BlobKind::Report => "report",
            BlobKind::Events => "events",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "report" => Some(BlobKind::Report),
            "events" => Some(BlobKind::Events),
            _ => None,
        }
    }
}

/// Counters surfaced through `/v1/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of live blobs (a digest with both report and events counts 2).
    pub entries: u64,
    /// Total on-disk bytes of live blobs, frame headers included.
    pub bytes: u64,
    /// Blobs read back and checksum-verified from disk.
    pub hydrations: u64,
    /// Blobs found torn/corrupt and moved to `quarantine/` (open + runtime).
    pub quarantines: u64,
    /// Blobs evicted to keep within the byte budget.
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlobMeta {
    len: u32,
    sum: u64,
}

impl BlobMeta {
    fn frame_bytes(self) -> u64 {
        FRAME_HEADER_BYTES as u64 + u64::from(self.len)
    }
}

#[derive(Debug, Default)]
struct DigestEntry {
    report: Option<BlobMeta>,
    events: Option<BlobMeta>,
}

impl DigestEntry {
    fn get(&self, kind: BlobKind) -> Option<BlobMeta> {
        match kind {
            BlobKind::Report => self.report,
            BlobKind::Events => self.events,
        }
    }

    fn set(&mut self, kind: BlobKind, meta: Option<BlobMeta>) {
        match kind {
            BlobKind::Report => self.report = meta,
            BlobKind::Events => self.events = meta,
        }
    }

    fn is_empty(&self) -> bool {
        self.report.is_none() && self.events.is_none()
    }

    fn bytes(&self) -> u64 {
        self.report.map_or(0, BlobMeta::frame_bytes) + self.events.map_or(0, BlobMeta::frame_bytes)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    None,
    TornBlob,
    LostBlob,
}

/// The write-through on-disk result store. One instance per daemon,
/// guarded by a mutex in the server's shared state; every method that
/// touches disk takes `&mut self`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journal: File,
    index: HashMap<String, DigestEntry>,
    /// Digest-level recency; evicting a digest drops both its blobs.
    lru: Lru<String>,
    max_bytes: u64,
    bytes: u64,
    hydrations: u64,
    quarantines: u64,
    evictions: u64,
    quarantine_seq: u64,
    fault: FaultMode,
    quiet: bool,
}

impl Store {
    /// Open (or create) a state directory: replay the journal, truncate a
    /// torn tail, verify every referenced blob's frame header against the
    /// journal record, quarantine mismatches, delete orphan blobs, and
    /// compact the journal down to the live index.
    pub fn open(dir: &Path, max_bytes: u64, quiet: bool) -> io::Result<Store> {
        fs::create_dir_all(dir.join("blobs"))?;
        fs::create_dir_all(dir.join("quarantine"))?;
        let journal_path = dir.join("journal.bas");

        let mut index: HashMap<String, DigestEntry> = HashMap::new();
        let mut lru = Lru::new(usize::MAX);
        let raw = match fs::read(&journal_path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut offset = 0usize;
        while offset < raw.len() {
            match decode_frame(&raw[offset..], MAX_JOURNAL_RECORD) {
                Decoded::Frame { payload, consumed } => {
                    offset += consumed;
                    let Ok(record) = std::str::from_utf8(payload) else { continue };
                    apply_record(record, &mut index, &mut lru);
                }
                Decoded::Torn | Decoded::Corrupt => {
                    if !quiet {
                        eprintln!(
                            "bas serve store: journal tail torn at byte {offset} \
                             ({} bytes dropped)",
                            raw.len() - offset
                        );
                    }
                    break;
                }
            }
        }

        let mut store = Store {
            dir: dir.to_path_buf(),
            // Placeholder handle; replaced by `compact` below.
            journal: OpenOptions::new().create(true).append(true).open(&journal_path)?,
            index,
            lru,
            max_bytes: max_bytes.max(1),
            bytes: 0,
            hydrations: 0,
            quarantines: 0,
            evictions: 0,
            quarantine_seq: 0,
            fault: fault_from_env(),
            quiet,
        };
        store.verify_blobs()?;
        store.sweep_orphans()?;
        store.bytes = store.index.values().map(DigestEntry::bytes).sum();
        store.compact()?;
        // Enforce the budget immediately in case it shrank across restarts.
        store.enforce_budget()?;
        Ok(store)
    }

    /// Whether a live, so-far-uncorrupted blob exists for `digest`+`kind`.
    /// Marks the digest as recently used.
    pub fn has(&mut self, digest: &str, kind: BlobKind) -> bool {
        let hit = self.index.get(digest).and_then(|e| e.get(kind)).is_some();
        if hit {
            self.lru.touch(&digest.to_string());
        }
        hit
    }

    /// Read a blob back, verifying the full payload checksum. Corruption
    /// quarantines the blob and returns `None` — a quarantined digest
    /// behaves like a cache miss and is recomputed on resubmission.
    pub fn load(&mut self, digest: &str, kind: BlobKind) -> Option<Vec<u8>> {
        let meta = self.index.get(digest)?.get(kind)?;
        let path = self.blob_path(digest, kind);
        let ok = fs::read(&path).ok().and_then(|raw| match decode_frame(&raw, u32::MAX) {
            Decoded::Frame { payload, consumed }
                if consumed == raw.len()
                    && payload.len() == meta.len as usize
                    && fnv1a64(payload) == meta.sum =>
            {
                Some(payload.to_vec())
            }
            _ => None,
        });
        match ok {
            Some(payload) => {
                self.hydrations += 1;
                self.lru.touch(&digest.to_string());
                Some(payload)
            }
            None => {
                self.quarantine(digest, kind);
                let _ = self.append_records(&[evict_record(digest, kind)]);
                None
            }
        }
    }

    /// Write-through commit: journal record first (fsynced), then the blob
    /// (fsynced). Returns `Ok(false)` if the blob was already present or
    /// is larger than the whole byte budget (nothing written).
    pub fn commit(&mut self, digest: &str, kind: BlobKind, payload: &[u8]) -> io::Result<bool> {
        if self.index.get(digest).and_then(|e| e.get(kind)).is_some() {
            self.lru.touch(&digest.to_string());
            return Ok(false);
        }
        let meta = BlobMeta { len: payload.len() as u32, sum: fnv1a64(payload) };
        if meta.frame_bytes() > self.max_bytes {
            if !self.quiet {
                eprintln!(
                    "bas serve store: {digest}.{} ({} bytes) exceeds --state-max-bytes, \
                     not persisted",
                    kind.as_str(),
                    meta.frame_bytes()
                );
            }
            return Ok(false);
        }

        // 1. Intent: journal record, durable before any blob bytes exist.
        self.append_records(&[format!(
            "done {digest} {} {} {:016x}",
            kind.as_str(),
            meta.len,
            meta.sum
        )])?;
        if self.fault == FaultMode::LostBlob {
            std::process::abort();
        }

        // 2. Data: the blob frame.
        let path = self.blob_path(digest, kind);
        let mut file = File::create(&path)?;
        if self.fault == FaultMode::TornBlob {
            let frame = encode_frame(payload);
            file.write_all(&frame[..FRAME_HEADER_BYTES + payload.len() / 2])?;
            let _ = file.sync_all();
            std::process::abort();
        }
        file.write_all(&encode_frame(payload))?;
        file.sync_all()?;
        sync_dir(&self.dir.join("blobs"));

        self.index.entry(digest.to_string()).or_default().set(kind, Some(meta));
        self.bytes += meta.frame_bytes();
        self.lru.insert(digest.to_string());
        self.enforce_budget()?;
        Ok(true)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self
                .index
                .values()
                .map(|e| u64::from(e.report.is_some()) + u64::from(e.events.is_some()))
                .sum(),
            bytes: self.bytes,
            hydrations: self.hydrations,
            quarantines: self.quarantines,
            evictions: self.evictions,
        }
    }

    fn blob_path(&self, digest: &str, kind: BlobKind) -> PathBuf {
        self.dir.join("blobs").join(format!("{digest}.{}", kind.as_str()))
    }

    /// Drop least-recently-used digests until the byte budget holds.
    fn enforce_budget(&mut self) -> io::Result<()> {
        let mut records = Vec::new();
        while self.bytes > self.max_bytes {
            let Some(digest) = self.lru.pop_oldest() else { break };
            let Some(entry) = self.index.remove(&digest) else { continue };
            for kind in [BlobKind::Report, BlobKind::Events] {
                if entry.get(kind).is_some() {
                    let _ = fs::remove_file(self.blob_path(&digest, kind));
                    records.push(evict_record(&digest, kind));
                    self.evictions += 1;
                }
            }
            self.bytes -= entry.bytes();
            if !self.quiet {
                eprintln!("bas serve store: evicted {digest} (budget)");
            }
        }
        if records.is_empty() {
            Ok(())
        } else {
            self.append_records(&records)
        }
    }

    /// Append framed records to the journal and fsync once.
    fn append_records(&mut self, records: &[String]) -> io::Result<()> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&encode_frame(r.as_bytes()));
        }
        self.journal.write_all(&buf)?;
        self.journal.sync_all()
    }

    /// Move a blob (whatever of it exists) into `quarantine/` and forget it.
    fn quarantine(&mut self, digest: &str, kind: BlobKind) {
        let src = self.blob_path(digest, kind);
        self.quarantine_seq += 1;
        let dst = self.dir.join("quarantine").join(format!(
            "{digest}.{}.{}",
            kind.as_str(),
            self.quarantine_seq
        ));
        let moved = fs::rename(&src, &dst).is_ok();
        if let Some(entry) = self.index.get_mut(digest) {
            if let Some(meta) = entry.get(kind) {
                self.bytes = self.bytes.saturating_sub(meta.frame_bytes());
            }
            entry.set(kind, None);
            if entry.is_empty() {
                self.index.remove(digest);
                self.lru.remove(&digest.to_string());
            }
        }
        self.quarantines += 1;
        if !self.quiet {
            eprintln!(
                "bas serve store: quarantined {digest}.{} ({})",
                kind.as_str(),
                if moved { "moved" } else { "blob missing" }
            );
        }
    }

    /// Open-time check of every indexed blob: the file must exist, have
    /// exactly the framed size the journal recorded, and carry a matching
    /// frame header. Full payload verification is deferred to [`Store::load`].
    fn verify_blobs(&mut self) -> io::Result<()> {
        let checks: Vec<(String, BlobKind, BlobMeta)> = self
            .index
            .iter()
            .flat_map(|(d, e)| {
                [BlobKind::Report, BlobKind::Events]
                    .into_iter()
                    .filter_map(|k| e.get(k).map(|m| (d.clone(), k, m)))
            })
            .collect();
        for (digest, kind, meta) in checks {
            let path = self.blob_path(&digest, kind);
            let ok = (|| -> io::Result<bool> {
                let mut f = File::open(&path)?;
                if f.metadata()?.len() != meta.frame_bytes() {
                    return Ok(false);
                }
                let mut header = [0u8; FRAME_HEADER_BYTES];
                f.read_exact(&mut header)?;
                let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
                let sum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
                Ok(len == meta.len && sum == meta.sum)
            })()
            .unwrap_or(false);
            if !ok {
                self.quarantine(&digest, kind);
            }
        }
        Ok(())
    }

    /// Delete blob files the index does not reference (e.g. an eviction
    /// that crashed between its journal record and the file unlink).
    fn sweep_orphans(&mut self) -> io::Result<()> {
        for entry in fs::read_dir(self.dir.join("blobs"))? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let live = name.rsplit_once('.').is_some_and(|(digest, ext)| {
                BlobKind::parse(ext)
                    .and_then(|k| self.index.get(digest).and_then(|e| e.get(k)))
                    .is_some()
            });
            if !live {
                let _ = fs::remove_file(entry.path());
                if !self.quiet {
                    eprintln!("bas serve store: removed orphan blob {name}");
                }
            }
        }
        Ok(())
    }

    /// Rewrite the journal from the live index (atomically, via rename) so
    /// dead records don't accumulate across restarts, then reopen the
    /// append handle.
    fn compact(&mut self) -> io::Result<()> {
        let tmp = self.dir.join("journal.tmp");
        let path = self.dir.join("journal.bas");
        {
            let mut f = File::create(&tmp)?;
            // Records are written oldest-first so replay rebuilds the same
            // recency order. The LRU normally tracks exactly the index keys;
            // stragglers (belt and braces) go first, alphabetically.
            let mut known = Vec::new();
            while let Some(d) = self.lru.pop_oldest() {
                if self.index.contains_key(&d) {
                    known.push(d);
                }
            }
            let mut ordered: Vec<String> =
                self.index.keys().filter(|d| !known.contains(d)).cloned().collect();
            ordered.sort();
            ordered.extend(known);
            let mut buf = Vec::new();
            for digest in &ordered {
                let entry = &self.index[digest];
                for kind in [BlobKind::Report, BlobKind::Events] {
                    if let Some(meta) = entry.get(kind) {
                        buf.extend_from_slice(&encode_frame(
                            format!(
                                "done {digest} {} {} {:016x}",
                                kind.as_str(),
                                meta.len,
                                meta.sum
                            )
                            .as_bytes(),
                        ));
                    }
                }
                self.lru.insert(digest.clone());
                // Rebuild recency: ordered is oldest-first, so the last
                // insert ends up most recent — matching pre-compaction order.
            }
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        sync_dir(&self.dir);
        self.journal = OpenOptions::new().append(true).open(&path)?;
        Ok(())
    }
}

fn evict_record(digest: &str, kind: BlobKind) -> String {
    format!("evict {digest} {}", kind.as_str())
}

/// Apply one journal record to the replay index. Unknown record types are
/// skipped (they are checksummed, so they come from a newer writer, not
/// corruption).
fn apply_record(record: &str, index: &mut HashMap<String, DigestEntry>, lru: &mut Lru<String>) {
    let mut parts = record.split(' ');
    match parts.next() {
        Some("done") => {
            let (Some(digest), Some(kind), Some(len), Some(sum)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return;
            };
            let (Some(kind), Ok(len), Ok(sum)) =
                (BlobKind::parse(kind), len.parse::<u32>(), u64::from_str_radix(sum, 16))
            else {
                return;
            };
            index.entry(digest.to_string()).or_default().set(kind, Some(BlobMeta { len, sum }));
            lru.insert(digest.to_string());
        }
        Some("evict") => {
            let (Some(digest), Some(kind)) = (parts.next(), parts.next()) else { return };
            let Some(kind) = BlobKind::parse(kind) else { return };
            if let Some(entry) = index.get_mut(digest) {
                entry.set(kind, None);
                if entry.is_empty() {
                    index.remove(digest);
                    lru.remove(&digest.to_string());
                }
            }
        }
        _ => {}
    }
}

fn fault_from_env() -> FaultMode {
    match std::env::var("BAS_SERVE_FAULT").as_deref() {
        Ok("torn-blob") => FaultMode::TornBlob,
        Ok("lost-blob") => FaultMode::LostBlob,
        _ => FaultMode::None,
    }
}

/// Best-effort directory fsync (directory entries are metadata too).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Truncate `path` to `len` bytes — used by tests to simulate torn writes.
#[doc(hidden)]
pub fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bas-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(b"hello");
        assert_eq!(
            decode_frame(&frame, 1024),
            Decoded::Frame { payload: b"hello", consumed: frame.len() }
        );
    }

    #[test]
    fn truncated_frame_is_torn_and_flipped_bit_is_corrupt() {
        let frame = encode_frame(b"payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut], 1024), Decoded::Torn, "cut at {cut}");
        }
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bad, 1024) {
                Decoded::Frame { .. } => panic!("bit flip at {bit} went undetected"),
                Decoded::Torn | Decoded::Corrupt => {}
            }
        }
    }

    #[test]
    fn commit_load_round_trip_and_counters() {
        let dir = tmpdir("roundtrip");
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert!(store.commit("d1", BlobKind::Report, b"{\"a\":1}").unwrap());
        assert!(!store.commit("d1", BlobKind::Report, b"{\"a\":1}").unwrap(), "dedup");
        assert!(store.has("d1", BlobKind::Report));
        assert!(!store.has("d1", BlobKind::Events));
        assert_eq!(store.load("d1", BlobKind::Report).unwrap(), b"{\"a\":1}");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.hydrations, stats.quarantines), (1, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rehydrates_the_index() {
        let dir = tmpdir("reopen");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"report-a").unwrap();
            store.commit("aaaa", BlobKind::Events, b"events-a\n").unwrap();
            store.commit("bbbb", BlobKind::Report, b"report-b").unwrap();
        }
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert_eq!(store.stats().entries, 3);
        assert_eq!(store.load("aaaa", BlobKind::Report).unwrap(), b"report-a");
        assert_eq!(store.load("aaaa", BlobKind::Events).unwrap(), b"events-a\n");
        assert_eq!(store.load("bbbb", BlobKind::Report).unwrap(), b"report-b");
        assert_eq!(store.stats().quarantines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_truncated_to_the_last_good_record() {
        let dir = tmpdir("torn-journal");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"report-a").unwrap();
            store.commit("bbbb", BlobKind::Report, b"report-b").unwrap();
        }
        // Tear the tail: drop the final 5 bytes of the journal.
        let journal = dir.join("journal.bas");
        let len = fs::metadata(&journal).unwrap().len();
        truncate_file(&journal, len - 5).unwrap();
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        // The record for bbbb was torn; its (fully written) blob is now an
        // orphan and removed. aaaa survives intact.
        assert_eq!(store.load("aaaa", BlobKind::Report).unwrap(), b"report-a");
        assert!(!store.has("bbbb", BlobKind::Report));
        assert!(!dir.join("blobs/bbbb.report").exists(), "orphan blob swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_blob_is_quarantined_on_open() {
        let dir = tmpdir("torn-blob");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"a long enough report payload").unwrap();
            store.commit("bbbb", BlobKind::Report, b"report-b").unwrap();
        }
        // Simulate a crash mid-blob-write: journal intact, blob truncated.
        let blob = dir.join("blobs/aaaa.report");
        truncate_file(&blob, 7).unwrap();
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert!(!store.has("aaaa", BlobKind::Report), "torn blob never served");
        assert_eq!(store.stats().quarantines, 1);
        assert!(dir.join("quarantine").read_dir().unwrap().count() == 1);
        assert_eq!(store.load("bbbb", BlobKind::Report).unwrap(), b"report-b");
        // The quarantine decision is durable: reopen quarantines nothing new.
        drop(store);
        let store = Store::open(&dir, 1 << 20, true).unwrap();
        assert_eq!(store.stats().quarantines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_inside_payload_is_caught_at_load_time() {
        let dir = tmpdir("bitflip");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"pristine payload bytes").unwrap();
        }
        let blob = dir.join("blobs/aaaa.report");
        let mut raw = fs::read(&blob).unwrap();
        let mid = FRAME_HEADER_BYTES + 4;
        raw[mid] ^= 0x40;
        fs::write(&blob, &raw).unwrap();
        // Size and header still match, so open() keeps it…
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert!(store.has("aaaa", BlobKind::Report));
        // …but hydration re-hashes the payload and quarantines.
        assert_eq!(store.load("aaaa", BlobKind::Report), None);
        assert_eq!(store.stats().quarantines, 1);
        assert!(!store.has("aaaa", BlobKind::Report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_digests() {
        let dir = tmpdir("budget");
        // Each blob frame is 12 + 100 bytes; budget fits two of them.
        let mut store = Store::open(&dir, 230, true).unwrap();
        let payload = [b'x'; 100];
        store.commit("aaaa", BlobKind::Report, &payload).unwrap();
        store.commit("bbbb", BlobKind::Report, &payload).unwrap();
        assert!(store.has("aaaa", BlobKind::Report), "refresh aaaa");
        store.commit("cccc", BlobKind::Report, &payload).unwrap();
        assert!(!store.has("bbbb", BlobKind::Report), "LRU victim");
        assert!(store.has("aaaa", BlobKind::Report));
        assert!(store.has("cccc", BlobKind::Report));
        assert_eq!(store.stats().evictions, 1);
        assert!(!dir.join("blobs/bbbb.report").exists());
        // Eviction is mirrored to disk: a reopen agrees.
        drop(store);
        let mut store = Store::open(&dir, 230, true).unwrap();
        assert!(!store.has("bbbb", BlobKind::Report));
        assert!(store.has("aaaa", BlobKind::Report) && store.has("cccc", BlobKind::Report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_skipped_not_stored() {
        let dir = tmpdir("oversize");
        let mut store = Store::open(&dir, 64, true).unwrap();
        assert!(!store.commit("aaaa", BlobKind::Report, &[b'x'; 100]).unwrap());
        assert_eq!(store.stats().entries, 0);
        assert!(!dir.join("blobs/aaaa.report").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_done_records_last_wins() {
        let dir = tmpdir("lastwins");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"first").unwrap();
        }
        // Hand-append: evict then a fresh done for the same digest, as a
        // commit→evict→commit cycle would. The blob on disk holds "second".
        {
            let mut f = OpenOptions::new().append(true).open(dir.join("journal.bas")).unwrap();
            f.write_all(&encode_frame(b"evict aaaa report")).unwrap();
            let payload = b"second";
            fs::write(dir.join("blobs/aaaa.report"), encode_frame(payload)).unwrap();
            f.write_all(&encode_frame(
                format!("done aaaa report {} {:016x}", payload.len(), fnv1a64(payload)).as_bytes(),
            ))
            .unwrap();
        }
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert_eq!(store.load("aaaa", BlobKind::Report).unwrap(), b"second");
        assert_eq!(store.stats().quarantines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_blob_for_journaled_record_is_quarantined() {
        let dir = tmpdir("lost-blob");
        {
            let mut store = Store::open(&dir, 1 << 20, true).unwrap();
            store.commit("aaaa", BlobKind::Report, b"report-a").unwrap();
        }
        fs::remove_file(dir.join("blobs/aaaa.report")).unwrap();
        let mut store = Store::open(&dir, 1 << 20, true).unwrap();
        assert!(!store.has("aaaa", BlobKind::Report));
        assert_eq!(store.stats().quarantines, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
