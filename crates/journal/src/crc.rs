//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the frame
//! checksum of the journal format.
//!
//! First-party like everything else in the workspace. The tables are built
//! at compile time, so there is no lazy-init branch on the append path.
//!
//! [`Crc32::update`] is slicing-by-8: eight bytes per step through eight
//! tables, the tail byte at a time. One codec, four users — journal
//! segments, the binary wire protocol, the replication stream and spill
//! slots all checksum through here.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
/// input bytes be folded in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte-at-a-time step.
fn step(state: u32, byte: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize]
}

/// An incremental CRC-32 over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = step(state, b);
        }
        self.state = state;
    }

    /// Finishes and returns the checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time loop slicing-by-8 replaced, kept as the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |state, &b| step(state, b))
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_loop() {
        // xorshift64: seeded, first-party, no dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let pool: Vec<u8> = (0..64 + 8).map(|_| next() as u8).collect();
        // Every length 0..=64 at every start offset 0..8: each split of a
        // buffer into 8-byte body and tail, at every slice alignment.
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &pool[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset} len {len}");
            }
        }
        for _ in 0..200 {
            let len = (next() % 5000) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), bytewise(&bytes), "random buffer of {len}");
            // Split anywhere: the state carried between updates is the same.
            let cut = (next() as usize) % (len + 1);
            let mut c = Crc32::new();
            c.update(&bytes[..cut]);
            c.update(&bytes[cut..]);
            assert_eq!(c.finish(), bytewise(&bytes), "split at {cut} of {len}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"split across several updates";
        let mut c = Crc32::new();
        for chunk in data.chunks(3) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"observation record payload".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
