//! Crash-safe completion journal for resumable `nova bench` sweeps.
//!
//! The journal is an append-only text file (`nova-journal/1`) that records,
//! for every machine the reorder window has emitted, the exact stream line
//! that was written plus enough identity material to validate a resume:
//!
//! ```text
//! nova-journal/1 key=<16 hex> machines=<N> corpus=<corpus>
//! Q <idx> <fnv16-of-reason> <pct-encoded-reason>
//! C <idx> <machine-fp> <class> <fnv16-of-line> <line>
//! ```
//!
//! * `C` records mark a completed machine. `<machine-fp>` is the
//!   `fsm::fingerprint` of the input machine (so resume can detect a corpus
//!   that silently changed), `<class>` is the one-character
//!   [`MachineClass`](crate::MachineClass) tag, and `<line>` is the verbatim
//!   `nova-bench-stream/1` machine line (JSON contains no raw newlines, so a
//!   record is always exactly one journal line).
//! * `Q` records carry the quarantine entry for a machine that crashed.
//!   They are written immediately *before* their machine's `C` record so
//!   that a kill between the two can only lose the pair together.
//! * Every record embeds an fnv64-derived 16-hex checksum of its payload; a
//!   torn tail (partial last line, bad checksum) is dropped on load rather
//!   than failing the resume.
//!
//! Records are `fsync`'d in batches (every [`SYNC_EVERY`] records and on
//! [`JournalWriter::finish`]), trading a bounded replay window for not
//! paying an fsync per machine.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::batch::{fnv64, MachineClass, QuarantineRecord};

/// Format tag on the journal header line.
pub const JOURNAL_SCHEMA: &str = "nova-journal/1";

/// Records between fsync batches.
const SYNC_EVERY: usize = 16;

/// Identity key binding a journal to one (corpus, options) pair.
///
/// Resume refuses to merge a journal produced under different encoding
/// options: the stream lines would not be byte-identical to a fresh run.
/// The key is an fnv64 over the corpus spec and every option that can
/// change a report line.
pub fn journal_key(corpus: &str, canonical_options: &str) -> u64 {
    let mut buf = String::with_capacity(corpus.len() + canonical_options.len() + 1);
    buf.push_str(corpus);
    buf.push('\n');
    buf.push_str(canonical_options);
    fnv64(&buf)
}

fn fnv16(payload: &str) -> String {
    format!("{:016x}", fnv64(payload))
}

/// Percent-encode a free-form string (quarantine reasons) so it fits in one
/// space-delimited journal field. Escapes `%`, whitespace, and control bytes.
fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'\t' | b'\n' | b'\r' => {
                let _ = write!(out, "%{b:02x}");
            }
            0x00..=0x1f | 0x7f => {
                let _ = write!(out, "%{b:02x}");
            }
            _ => out.push(b as char),
        }
    }
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn pct_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    if out == [0] {
        return Some(String::new());
    }
    String::from_utf8(out).ok()
}

/// One replayed completion record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedMachine {
    /// Machine index within the sweep.
    pub index: usize,
    /// `fsm::fingerprint` of the input machine at record time.
    pub machine_fp: String,
    /// Outcome class of the emitted line.
    pub class: MachineClass,
    /// Verbatim `nova-bench-stream/1` machine line (no trailing newline).
    pub line: String,
    /// Quarantine entry, when the machine crashed.
    pub quarantine: Option<QuarantineRecord>,
}

/// Appends completion records to a journal file.
pub struct JournalWriter {
    out: BufWriter<File>,
    since_sync: usize,
}

impl JournalWriter {
    /// Create (truncate) a fresh journal and write its header.
    pub fn create(path: &Path, key: u64, machines: usize, corpus: &str) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut w = JournalWriter {
            out: BufWriter::new(file),
            since_sync: 0,
        };
        writeln!(
            w.out,
            "{JOURNAL_SCHEMA} key={key:016x} machines={machines} corpus={corpus}"
        )?;
        w.sync()?;
        Ok(w)
    }

    /// Reopen an existing journal for appending (resume mode). The caller is
    /// expected to have validated the header via [`JournalReplay::load`].
    pub fn append(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            out: BufWriter::new(file),
            since_sync: 0,
        })
    }

    /// Record a completed machine; `line` is the exact stream line emitted
    /// (without trailing newline). Writes the quarantine record, if any,
    /// immediately before the completion record.
    pub fn record(
        &mut self,
        index: usize,
        machine_fp: &str,
        class: MachineClass,
        line: &str,
        quarantine: Option<&QuarantineRecord>,
    ) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "stream lines are single-line JSON");
        if let Some(q) = quarantine {
            let reason = pct_encode(&q.reason);
            writeln!(self.out, "Q {} {} {}", q.index, fnv16(&reason), reason)?;
            self.since_sync += 1;
        }
        writeln!(
            self.out,
            "C {index} {machine_fp} {} {} {line}",
            class.tag(),
            fnv16(line)
        )?;
        self.since_sync += 1;
        if self.since_sync >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush and fsync everything written so far.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.since_sync = 0;
        Ok(())
    }

    /// Final flush + fsync at the end of a sweep.
    pub fn finish(mut self) -> io::Result<()> {
        self.sync()
    }
}

/// Parsed, validated view of an existing journal.
#[derive(Debug)]
pub struct JournalReplay {
    /// Identity key from the header.
    pub key: u64,
    /// Machine count the journal was created for.
    pub machines: usize,
    /// Corpus spec from the header.
    pub corpus: String,
    /// Completed machines by index (later records win on duplicates).
    pub completed: BTreeMap<usize, ReplayedMachine>,
    /// Records dropped as torn/corrupt (for operator visibility).
    pub dropped: usize,
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem-level failure opening or reading the file.
    Io(io::Error),
    /// The header line is missing or not `nova-journal/1`.
    Malformed(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Malformed(m) => write!(f, "malformed journal: {m}"),
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl JournalReplay {
    /// Load and validate a journal. Torn or checksum-failing records at the
    /// tail are dropped (counted in `dropped`); the first bad record stops
    /// the scan, since everything after a torn write is suspect. A `Q`
    /// record with no matching `C` is likewise dropped — quarantine entries
    /// only count once their machine's completion record landed.
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        let ends_clean = text.ends_with('\n');
        let mut lines = text.split('\n');
        let header = lines
            .next()
            .ok_or_else(|| JournalError::Malformed("empty file".into()))?;
        let (key, machines, corpus) = parse_header(header)?;

        let body: Vec<&str> = lines.collect();
        // `split('\n')` leaves a trailing "" on a clean file; without the
        // trailing newline the final entry is a line torn mid-write. Either
        // way the last entry is not a complete record.
        let complete = body.len().saturating_sub(1);
        let mut dropped = if ends_clean { 0 } else { 1 };

        let mut completed: BTreeMap<usize, ReplayedMachine> = BTreeMap::new();
        let mut pending_q: BTreeMap<usize, QuarantineRecord> = BTreeMap::new();
        for (at, raw) in body[..complete].iter().enumerate() {
            match parse_record(raw) {
                Some(Record::Completion {
                    index,
                    machine_fp,
                    class,
                    line,
                }) => {
                    let quarantine = pending_q.remove(&index);
                    completed.insert(
                        index,
                        ReplayedMachine {
                            index,
                            machine_fp,
                            class,
                            line,
                            quarantine,
                        },
                    );
                }
                Some(Record::Quarantine(q)) => {
                    pending_q.insert(q.index, q);
                }
                None => {
                    // First bad record: stop, count it and the rest as
                    // dropped — everything after a torn write is suspect.
                    dropped += complete - at;
                    break;
                }
            }
        }
        // Orphan Q records (machine's C never landed) are dropped.
        dropped += pending_q.len();

        Ok(JournalReplay {
            key,
            machines,
            corpus,
            completed,
            dropped,
        })
    }
}

enum Record {
    Completion {
        index: usize,
        machine_fp: String,
        class: MachineClass,
        line: String,
    },
    Quarantine(QuarantineRecord),
}

fn parse_header(line: &str) -> Result<(u64, usize, String), JournalError> {
    let rest = line
        .strip_prefix(JOURNAL_SCHEMA)
        .ok_or_else(|| JournalError::Malformed(format!("bad header: {line:?}")))?;
    let rest = rest.trim_start();
    let key_part = rest
        .strip_prefix("key=")
        .ok_or_else(|| JournalError::Malformed("header missing key=".into()))?;
    let (key_hex, rest) = key_part
        .split_once(' ')
        .ok_or_else(|| JournalError::Malformed("truncated header".into()))?;
    let key = u64::from_str_radix(key_hex, 16)
        .map_err(|_| JournalError::Malformed(format!("bad key {key_hex:?}")))?;
    let machines_part = rest
        .strip_prefix("machines=")
        .ok_or_else(|| JournalError::Malformed("header missing machines=".into()))?;
    let (machines_str, rest) = machines_part
        .split_once(' ')
        .ok_or_else(|| JournalError::Malformed("truncated header".into()))?;
    let machines = machines_str
        .parse::<usize>()
        .map_err(|_| JournalError::Malformed(format!("bad machines {machines_str:?}")))?;
    let corpus = rest
        .strip_prefix("corpus=")
        .ok_or_else(|| JournalError::Malformed("header missing corpus=".into()))?;
    Ok((key, machines, corpus.to_string()))
}

fn parse_record(raw: &str) -> Option<Record> {
    let (kind, rest) = raw.split_once(' ')?;
    match kind {
        "C" => {
            // C <idx> <machine-fp> <class> <fnv16> <line>
            let mut f = rest.splitn(5, ' ');
            let index = f.next()?.parse::<usize>().ok()?;
            let machine_fp = f.next()?.to_string();
            let class_str = f.next()?;
            let class = MachineClass::from_tag(class_str.chars().next()?)?;
            if class_str.len() != 1 {
                return None;
            }
            let sum = f.next()?;
            let line = f.next()?.to_string();
            if fnv16(&line) != sum {
                return None;
            }
            Some(Record::Completion {
                index,
                machine_fp,
                class,
                line,
            })
        }
        "Q" => {
            // Q <idx> <fnv16> <pct-encoded-reason>
            let mut f = rest.splitn(3, ' ');
            let index = f.next()?.parse::<usize>().ok()?;
            let sum = f.next()?;
            let encoded = f.next()?;
            if fnv16(encoded) != sum {
                return None;
            }
            let reason = pct_decode(encoded)?;
            Some(Record::Quarantine(QuarantineRecord {
                index,
                machine: String::new(), // filled from the stream line on merge
                reason,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nova-journal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_with_quarantine() {
        let path = tmp("roundtrip");
        let key = journal_key("machines=4,seed=1", "algs=ihybrid|budget=100");
        let mut w = JournalWriter::create(&path, key, 4, "machines=4,seed=1").unwrap();
        w.record(0, "aabb", MachineClass::Solved, r#"{"machine":"m0"}"#, None)
            .unwrap();
        let q = QuarantineRecord {
            index: 1,
            machine: "m1".into(),
            reason: "panic: boom with spaces\nand newline".into(),
        };
        w.record(
            1,
            "ccdd",
            MachineClass::Unresolved,
            r#"{"machine":"m1"}"#,
            Some(&q),
        )
        .unwrap();
        w.finish().unwrap();

        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.key, key);
        assert_eq!(replay.machines, 4);
        assert_eq!(replay.corpus, "machines=4,seed=1");
        assert_eq!(replay.dropped, 0);
        assert_eq!(replay.completed.len(), 2);
        let m0 = &replay.completed[&0];
        assert_eq!(m0.machine_fp, "aabb");
        assert_eq!(m0.class, MachineClass::Solved);
        assert_eq!(m0.line, r#"{"machine":"m0"}"#);
        assert!(m0.quarantine.is_none());
        let m1 = &replay.completed[&1];
        let rq = m1.quarantine.as_ref().unwrap();
        assert_eq!(rq.index, 1);
        assert_eq!(rq.reason, "panic: boom with spaces\nand newline");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_orphan_q_are_dropped() {
        let path = tmp("torn");
        let key = journal_key("c", "o");
        let mut w = JournalWriter::create(&path, key, 8, "c").unwrap();
        w.record(0, "ff", MachineClass::Solved, r#"{"m":0}"#, None)
            .unwrap();
        w.finish().unwrap();
        // Simulate a crash mid-write: orphan Q then a torn C line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("Q 5 0000000000000000 lost\n");
        text.push_str("C 1 ee s 00000000"); // no newline, truncated
        fs::write(&path, &text).unwrap();

        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.completed.contains_key(&0));
        assert!(replay.dropped >= 2, "dropped={}", replay.dropped);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_stops_scan() {
        let path = tmp("sum");
        let key = journal_key("c", "o");
        let mut w = JournalWriter::create(&path, key, 8, "c").unwrap();
        w.record(0, "ff", MachineClass::Solved, r#"{"m":0}"#, None)
            .unwrap();
        w.record(1, "ee", MachineClass::Degraded, r#"{"m":1}"#, None)
            .unwrap();
        w.finish().unwrap();
        // Corrupt record 0's payload; record 1 must also be dropped (scan
        // stops at the first bad record — everything after is suspect).
        let text = fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen(r#"{"m":0}"#, r#"{"m":9}"#, 1);
        fs::write(&path, &corrupted).unwrap();

        let replay = JournalReplay::load(&path).unwrap();
        assert!(replay.completed.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("hdr");
        fs::write(&path, "not-a-journal\n").unwrap();
        assert!(matches!(
            JournalReplay::load(&path),
            Err(JournalError::Malformed(_))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn pct_codec_round_trips() {
        for s in ["", "plain", "has space", "pct%sign", "nl\nand\ttab"] {
            assert_eq!(pct_decode(&pct_encode(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn journal_key_differs_on_options() {
        assert_ne!(journal_key("c", "a"), journal_key("c", "b"));
        assert_ne!(journal_key("c1", "a"), journal_key("c2", "a"));
    }
}
