//! Record framing: `[u32 len][u32 crc][payload]`, little-endian, with a
//! hand-rolled slicing-by-8 CRC-32 (IEEE) over the payload, also
//! kept as a running checksum for streamed snapshot blobs.
//!
//! Decoding distinguishes the two ways a log can be damaged:
//!
//! * A **torn tail** — the log ends mid-record (short header, or fewer
//!   than `len` payload bytes). That is what an interrupted append looks
//!   like, so the partial record is silently dropped and everything before
//!   it is used. [`decode_frames`] reports how many tail bytes were torn.
//! * **Corruption** — a record is fully present but its CRC does not
//!   match. That is never produced by a crash (crashes truncate); it means
//!   the stored bytes changed, and recovery must fail loudly rather than
//!   replay garbage. [`FrameError::Corrupt`] carries the byte offset of
//!   the offending record.

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slicing-by-8
/// lookup tables, built at compile time. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight table lookups fold in eight input
/// bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// A running CRC-32 (IEEE): feed bytes in any split with
/// [`Crc32::update`], read the checksum with [`Crc32::finish`]. The result
/// equals [`crc32`] over the concatenation of every update.
#[derive(Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A CRC over no bytes yet.
    pub(crate) fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Folds `bytes` into the checksum, eight at a time, then byte-wise
    /// for the tail.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The CRC-32 of every byte fed so far.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

/// The CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Header bytes per frame: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Appends one framed record onto `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(u32::try_from(payload.len()).expect("record too large")).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Log damage that recovery must not replay through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A fully present record whose CRC does not match, at this byte
    /// offset of the log.
    Corrupt {
        /// Byte offset of the record's frame header within the log.
        offset: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt { offset } => {
                write!(f, "CRC mismatch on record at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Every intact frame of `bytes`, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrames<'a> {
    /// `(start offset, end offset, payload)` of each intact record; the
    /// end offset is where the next frame header begins.
    pub frames: Vec<(usize, usize, &'a [u8])>,
    /// Bytes of torn (incomplete) final record dropped from the tail.
    pub torn_bytes: usize,
}

/// Splits a log into its intact frames, dropping a torn tail and
/// refusing corruption (see the module docs for the distinction).
pub fn decode_frames(bytes: &[u8]) -> Result<DecodedFrames<'_>, FrameError> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return Ok(DecodedFrames {
                frames,
                torn_bytes: remaining,
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if remaining < FRAME_HEADER + len {
            return Ok(DecodedFrames {
                frames,
                torn_bytes: remaining,
            });
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Err(FrameError::Corrupt { offset: pos });
        }
        let end = pos + FRAME_HEADER + len;
        frames.push((pos, end, payload));
        pos = end;
    }
    Ok(DecodedFrames {
        frames,
        torn_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time CRC loop: the oracle the sliced one must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop_at_every_length_and_alignment() {
        // A fixed-seed LCG: random lengths 0..100 at unaligned starts.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize
        };
        let data: Vec<u8> = (0..256).map(|_| next() as u8).collect();
        for _ in 0..2_000 {
            let start = next() % 16;
            let len = next() % 101;
            let bytes = &data[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{start}+{len}");
            // Any split of the input gives the same running CRC.
            let cut = next() % (len + 1);
            let mut crc = Crc32::new();
            crc.update(&bytes[..cut]);
            crc.update(&bytes[cut..]);
            assert_eq!(
                crc.finish(),
                crc32_bytewise(bytes),
                "{start}+{len} cut {cut}"
            );
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"beta-record");
        let decoded = decode_frames(&buf).unwrap();
        let payloads: Vec<&[u8]> = decoded.frames.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], &b""[..], &b"beta-record"[..]]);
        assert_eq!(decoded.torn_bytes, 0);
        assert_eq!(decoded.frames.last().unwrap().1, buf.len());
    }

    #[test]
    fn torn_tail_is_dropped_at_every_truncation_point() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        let keep = buf.len();
        append_frame(&mut buf, b"second-record");
        // Every strict prefix that cuts into the second record decodes to
        // just the first, reporting the torn byte count.
        for cut in keep..buf.len() {
            let decoded = decode_frames(&buf[..cut]).unwrap();
            assert_eq!(decoded.frames.len(), 1, "cut at {cut}");
            assert_eq!(decoded.torn_bytes, cut - keep, "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_loud_with_the_offending_offset() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        let second_at = buf.len();
        append_frame(&mut buf, b"second");
        append_frame(&mut buf, b"third");
        // Flip one payload byte of the middle record.
        buf[second_at + FRAME_HEADER] ^= 0x01;
        assert_eq!(
            decode_frames(&buf),
            Err(FrameError::Corrupt { offset: second_at })
        );
    }
}
