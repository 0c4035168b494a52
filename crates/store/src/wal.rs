//! Write-ahead-log record framing and replay.
//!
//! Both on-disk files of a [`crate::FileStore`] — the append-only WAL
//! and the checkpointed segment — are sequences of the same framed
//! records:
//!
//! ```text
//! +------------+------------+-----------------------------+
//! | len  (u32) | crc  (u32) | payload (len bytes)         |
//! +------------+------------+-----------------------------+
//! payload = tag (u8) ‖ body
//!   tag 1  Put     body = addr (u64) ‖ block bytes
//!   tag 2  Remove  body = addr (u64)
//!   tag 3  Commit  body = seq  (u64)
//! ```
//!
//! All integers are big-endian; `crc` is CRC-32 (IEEE) over the payload.
//! The framing is what makes torn writes detectable: a crash mid-append
//! leaves a record whose length field runs past end-of-file or whose CRC
//! does not match, and [`replay`] discards it together with every
//! not-yet-committed record before it — recovered state is always
//! *exactly* the state as of some commit record, never a torn hybrid.

use std::collections::HashMap;

/// Upper bound on a single record payload (64 MiB + framing slack).
/// Bounds allocation when a torn length field decodes to garbage.
pub const MAX_RECORD_LEN: u32 = (64 << 20) + 64;

/// Bytes of framing per record (length + CRC).
pub const FRAME_LEN: usize = 8;

/// Where a `Put` record's block bytes start, relative to the start of
/// its frame: past the framing, the tag and the address.
pub const PUT_BLOCK_OFFSET: u64 = FRAME_LEN as u64 + 9;

/// One logical WAL operation. A `Put` borrows its block: the store
/// frames the caller's bytes straight into its buffer, and [`replay`]
/// locates a block inside the scanned input without copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// Store `block` at `addr`, replacing any previous block.
    Put {
        /// Destination address.
        addr: u64,
        /// Block contents.
        block: &'a [u8],
    },
    /// Forget the block at `addr`.
    Remove {
        /// Address to forget.
        addr: u64,
    },
    /// Transaction boundary: everything staged since the previous commit
    /// becomes durable state.
    Commit {
        /// Monotonic commit sequence number.
        seq: u64,
    },
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_COMMIT: u8 = 3;

impl Record<'_> {
    /// Appends the record with its frame (length + CRC + payload) to
    /// `out`, with no intermediate buffer.
    pub fn append_frame(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_LEN]);
        match self {
            Record::Put { addr, block } => {
                out.push(TAG_PUT);
                out.extend_from_slice(&addr.to_be_bytes());
                out.extend_from_slice(block);
            }
            Record::Remove { addr } => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(&addr.to_be_bytes());
            }
            Record::Commit { seq } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&seq.to_be_bytes());
            }
        }
        let payload = &out[start + FRAME_LEN..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        out[start..start + 4].copy_from_slice(&len.to_be_bytes());
        out[start + 4..start + FRAME_LEN].copy_from_slice(&crc.to_be_bytes());
    }
}

/// Outcome of scanning one record at `input[offset..]`.
enum Scan<'a> {
    /// A well-formed record, borrowing from the input; `next` is the
    /// offset just past it. For `Put`, `block_offset` locates the block
    /// bytes within the file.
    Ok {
        record: Record<'a>,
        block_offset: u64,
        next: u64,
    },
    /// End of input exactly at a record boundary.
    Eof,
    /// A torn or corrupt record: everything from `offset` on is garbage.
    Torn(&'static str),
}

fn scan_one(input: &[u8], offset: u64) -> Scan<'_> {
    let off = offset as usize;
    let remaining = &input[off..];
    if remaining.is_empty() {
        return Scan::Eof;
    }
    if remaining.len() < FRAME_LEN {
        return Scan::Torn("truncated frame header");
    }
    let len = u32::from_be_bytes(remaining[0..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Scan::Torn("record length out of range");
    }
    let crc = u32::from_be_bytes(remaining[4..8].try_into().expect("4 bytes"));
    let total = FRAME_LEN + len as usize;
    if remaining.len() < total {
        return Scan::Torn("record runs past end of file");
    }
    let payload = &remaining[FRAME_LEN..total];
    if crc32(payload) != crc {
        return Scan::Torn("CRC mismatch");
    }
    if payload.is_empty() {
        return Scan::Torn("empty payload");
    }
    let body = &payload[1..];
    let record = match payload[0] {
        TAG_PUT if body.len() >= 8 => Record::Put {
            addr: u64::from_be_bytes(body[..8].try_into().expect("8 bytes")),
            block: &body[8..],
        },
        TAG_REMOVE if body.len() == 8 => Record::Remove {
            addr: u64::from_be_bytes(body.try_into().expect("8 bytes")),
        },
        TAG_COMMIT if body.len() == 8 => Record::Commit {
            seq: u64::from_be_bytes(body.try_into().expect("8 bytes")),
        },
        _ => return Scan::Torn("unknown tag or malformed body"),
    };
    Scan::Ok {
        record,
        block_offset: offset + PUT_BLOCK_OFFSET,
        next: offset + total as u64,
    }
}

/// Where a live block's bytes sit inside one of the store's files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLoc {
    /// Byte offset of the block contents.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u32,
}

/// The result of replaying a record stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Final committed effect per address: `Some(loc)` — the latest
    /// committed version lives at `loc` within the replayed file;
    /// `None` — the address was removed. Addresses never touched by a
    /// committed record are absent, so the map composes over a base
    /// state (the checkpointed segment).
    pub effects: HashMap<u64, Option<BlockLoc>>,
    /// Highest committed sequence number seen (0 when none).
    pub last_seq: u64,
    /// Number of commit records applied.
    pub commits: u64,
    /// Offset just past the last *committed* record — the safe point to
    /// continue appending from.
    pub committed_len: u64,
    /// Bytes discarded past `committed_len` (uncommitted tail and/or a
    /// torn record), plus why scanning stopped, when it did not stop at
    /// a clean end-of-file.
    pub torn: Option<(u64, &'static str)>,
}

/// Replays a framed record stream with transactional semantics: staged
/// `Put`/`Remove` records take effect only when a `Commit` record is
/// fully present and valid. A torn record (or end-of-file mid-
/// transaction) discards the staged tail.
pub fn replay(input: &[u8]) -> Replay {
    let mut out = Replay::default();
    let mut staged: Vec<(u64, Option<BlockLoc>)> = Vec::new();
    let mut offset = 0u64;
    loop {
        match scan_one(input, offset) {
            Scan::Eof => {
                if !staged.is_empty() {
                    out.torn = Some((input.len() as u64 - out.committed_len, "uncommitted tail"));
                }
                return out;
            }
            Scan::Torn(reason) => {
                out.torn = Some((input.len() as u64 - out.committed_len, reason));
                return out;
            }
            Scan::Ok {
                record,
                block_offset,
                next,
            } => {
                match record {
                    Record::Put { addr, block } => staged.push((
                        addr,
                        Some(BlockLoc {
                            offset: block_offset,
                            len: block.len() as u32,
                        }),
                    )),
                    Record::Remove { addr } => staged.push((addr, None)),
                    Record::Commit { seq } => {
                        for (addr, loc) in staged.drain(..) {
                            out.effects.insert(addr, loc);
                        }
                        out.last_seq = seq;
                        out.commits += 1;
                        out.committed_len = next;
                    }
                }
                offset = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_stream(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            r.append_frame(&mut out);
        }
        out
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn replay_applies_committed_transactions() {
        let stream = frame_stream(&[
            Record::Put {
                addr: 1,
                block: &[0xAA; 4],
            },
            Record::Put {
                addr: 2,
                block: &[0xBB; 2],
            },
            Record::Commit { seq: 1 },
            Record::Remove { addr: 1 },
            Record::Commit { seq: 2 },
        ]);
        let replay = replay(&stream);
        assert_eq!(replay.commits, 2);
        assert_eq!(replay.last_seq, 2);
        assert!(replay.torn.is_none());
        assert_eq!(replay.committed_len, stream.len() as u64);
        assert_eq!(replay.effects[&1], None, "remove recorded as effect");
        let loc = replay.effects[&2].expect("live block");
        assert_eq!(
            &stream[loc.offset as usize..loc.offset as usize + 2],
            &[0xBB, 0xBB]
        );
    }

    #[test]
    fn uncommitted_tail_discarded() {
        let mut stream = frame_stream(&[
            Record::Put {
                addr: 1,
                block: &[1],
            },
            Record::Commit { seq: 1 },
        ]);
        let committed = stream.len() as u64;
        Record::Put {
            addr: 1,
            block: &[9, 9],
        }
        .append_frame(&mut stream);
        let replay = replay(&stream);
        assert_eq!(replay.commits, 1);
        assert_eq!(replay.committed_len, committed);
        assert!(replay.torn.is_some());
        assert_eq!(replay.effects[&1].expect("live").len, 1);
    }

    #[test]
    fn torn_record_discarded_at_every_truncation_point() {
        let full = frame_stream(&[
            Record::Put {
                addr: 5,
                block: &[7; 16],
            },
            Record::Commit { seq: 1 },
            Record::Put {
                addr: 5,
                block: &[8; 16],
            },
            Record::Put {
                addr: 6,
                block: &[9; 16],
            },
            Record::Commit { seq: 2 },
        ]);
        let first_commit_end = frame_stream(&[
            Record::Put {
                addr: 5,
                block: &[7; 16],
            },
            Record::Commit { seq: 1 },
        ])
        .len() as u64;
        for cut in 0..full.len() {
            let replay = replay(&full[..cut]);
            if (cut as u64) < first_commit_end {
                assert_eq!(replay.commits, 0, "cut={cut}");
                assert!(replay.effects.is_empty(), "cut={cut}");
            } else {
                // Between the two commits: exactly the first transaction.
                assert_eq!(replay.commits, 1, "cut={cut}");
                assert_eq!(replay.effects[&5].expect("live").len, 16);
                assert!(!replay.effects.contains_key(&6), "cut={cut}");
            }
        }
        let complete = replay(&full);
        assert_eq!(complete.commits, 2);
        assert!(complete.effects[&6].is_some());
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut stream = frame_stream(&[
            Record::Put {
                addr: 1,
                block: &[1, 2, 3, 4],
            },
            Record::Commit { seq: 1 },
        ]);
        // Flip a payload byte of the first record.
        stream[FRAME_LEN + 5] ^= 0x40;
        let replay = replay(&stream);
        assert_eq!(replay.commits, 0);
        assert_eq!(replay.torn.expect("torn").1, "CRC mismatch");
    }

    #[test]
    fn absurd_length_field_rejected() {
        let mut stream = vec![0xFF, 0xFF, 0xFF, 0xFF];
        stream.extend_from_slice(&[0u8; 64]);
        let replay = replay(&stream);
        assert_eq!(replay.commits, 0);
        assert_eq!(replay.torn.expect("torn").1, "record length out of range");
    }
}
