//! The journal's record schema and its binary encoding.
//!
//! One record is one acknowledged `observe`: which partition it hit, the
//! per-partition sequence number it became, the revealed wait, and the
//! optional outcome feedback that was attached (the previously served
//! bounds, which drive change-point detection on replay exactly as they
//! did live). Floats are carried as raw IEEE-754 bits so a replayed record
//! reproduces predictor state bit-for-bit.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u16 site_len   | site bytes (UTF-8)
//! u16 queue_len  | queue bytes (UTF-8)
//! u8  range_len  | proc-range label bytes ("1-4", "65+", ...)
//! u64 seq        | per-partition observation sequence number (1-based)
//! u64 wait_bits  | f64::to_bits of the wait
//! u8  flags      | bit 0: predicted_bmbp present, bit 1: predicted_lognormal,
//!                | bit 2: tombstone (partition delete)
//! [u64 bmbp_bits] [u64 lognormal_bits]    (present per flags, in order)
//! ```
//!
//! A **tombstone** deletes its partition: predictor state is discarded on
//! replay, but the record still consumes one sequence number, so the
//! per-partition seq-space stays contiguous across a delete (a later
//! resurrection continues at `tombstone_seq + 1`, never reuses numbers).
//! Tombstones carry no wait and no feedback — a tombstone frame with a
//! non-zero wait or any prediction bits is corrupt, not ambiguous.

use crate::frame::Reader;
use crate::JournalError;

/// Longest admitted site/queue name in a record (matches the serve
/// protocol's `MAX_NAME_LEN`).
pub const MAX_NAME_LEN: usize = 128;

/// One journaled observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Partition key: site name.
    pub site: String,
    /// Partition key: queue name.
    pub queue: String,
    /// Partition key: proc-range label (e.g. `"5-16"`).
    pub range: String,
    /// The per-partition sequence number this observation became (1-based).
    pub seq: u64,
    /// The revealed wait, in seconds.
    pub wait: f64,
    /// Outcome feedback for the BMBP predictor, if any was attached.
    pub predicted_bmbp: Option<f64>,
    /// Outcome feedback for the log-normal predictor, if any was attached.
    pub predicted_lognormal: Option<f64>,
    /// Partition delete marker; see the module docs for the seq-space
    /// contract.
    pub tombstone: bool,
}

impl Record {
    /// Builds the tombstone record that deletes `site/queue/range` at
    /// sequence number `seq` (which must be the partition's cursor + 1).
    pub fn tombstone(site: &str, queue: &str, range: &str, seq: u64) -> Record {
        Record {
            site: site.to_string(),
            queue: queue.to_string(),
            range: range.to_string(),
            seq,
            wait: 0.0,
            predicted_bmbp: None,
            predicted_lognormal: None,
            tombstone: true,
        }
    }

    /// Appends the binary encoding of this record to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.site.len() <= MAX_NAME_LEN);
        debug_assert!(self.queue.len() <= MAX_NAME_LEN);
        debug_assert!(self.range.len() <= u8::MAX as usize);
        out.extend_from_slice(&(self.site.len() as u16).to_le_bytes());
        out.extend_from_slice(self.site.as_bytes());
        out.extend_from_slice(&(self.queue.len() as u16).to_le_bytes());
        out.extend_from_slice(self.queue.as_bytes());
        out.push(self.range.len() as u8);
        out.extend_from_slice(self.range.as_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.wait.to_bits().to_le_bytes());
        debug_assert!(
            !self.tombstone
                || (self.wait == 0.0
                    && self.predicted_bmbp.is_none()
                    && self.predicted_lognormal.is_none()),
            "tombstones carry no wait and no feedback"
        );
        let flags = u8::from(self.predicted_bmbp.is_some())
            | (u8::from(self.predicted_lognormal.is_some()) << 1)
            | (u8::from(self.tombstone) << 2);
        out.push(flags);
        if let Some(p) = self.predicted_bmbp {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        if let Some(p) = self.predicted_lognormal {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }

    /// Decodes one record from a full frame payload. The payload must be
    /// exactly one record — trailing bytes are a decode error, because a
    /// frame holds exactly one record by construction.
    pub fn decode(payload: &[u8]) -> Result<Record, JournalError> {
        let mut r = Reader::new(payload);
        let site_len = r.u16("site length")?;
        let site = r.str(usize::from(site_len), "site")?.to_string();
        let queue_len = r.u16("queue length")?;
        let queue = r.str(usize::from(queue_len), "queue")?.to_string();
        let range_len = r.u8("range length")?;
        let range = r.str(usize::from(range_len), "range")?.to_string();
        let seq = r.u64("seq")?;
        let wait = f64::from_bits(r.u64("wait")?);
        let flags = r.u8("flags")?;
        if flags & !0b111 != 0 {
            return Err(JournalError::corrupt(format!("unknown record flags {flags:#04x}")));
        }
        let tombstone = flags & 0b100 != 0;
        let mut feedback = |bit: u8, field| (flags & bit != 0).then(|| r.u64(field)).transpose();
        let predicted_bmbp = feedback(0b01, "predicted_bmbp")?.map(f64::from_bits);
        let predicted_lognormal = feedback(0b10, "predicted_lognormal")?.map(f64::from_bits);
        r.done("record")?;
        if site.is_empty() || site.len() > MAX_NAME_LEN || queue.is_empty()
            || queue.len() > MAX_NAME_LEN || range.is_empty()
        {
            return Err(JournalError::corrupt("record key field out of bounds"));
        }
        if seq == 0 {
            return Err(JournalError::corrupt("record seq must be positive"));
        }
        if !wait.is_finite() || wait < 0.0 {
            return Err(JournalError::corrupt(format!("record wait {wait} out of range")));
        }
        if tombstone
            && (wait != 0.0 || predicted_bmbp.is_some() || predicted_lognormal.is_some())
        {
            return Err(JournalError::corrupt("tombstone record carries wait or feedback"));
        }
        Ok(Record { site, queue, range, seq, wait, predicted_bmbp, predicted_lognormal, tombstone })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            site: "datastar".into(),
            queue: "normal".into(),
            range: "5-16".into(),
            seq: 42,
            wait: 1234.5625,
            predicted_bmbp: Some(9_999.25),
            predicted_lognormal: None,
            tombstone: false,
        }
    }

    #[test]
    fn encode_decode_round_trip_bit_exact() {
        for rec in [
            sample(),
            Record { predicted_bmbp: None, predicted_lognormal: Some(0.0), ..sample() },
            Record {
                predicted_bmbp: Some(f64::MIN_POSITIVE),
                predicted_lognormal: Some(1e300),
                wait: 0.1 + 0.2, // not exactly representable: bits must survive
                ..sample()
            },
            Record { predicted_bmbp: None, predicted_lognormal: None, wait: 0.0, ..sample() },
            Record::tombstone("datastar", "normal", "5-16", 43),
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let back = Record::decode(&buf).unwrap();
            assert_eq!(back.wait.to_bits(), rec.wait.to_bits());
            assert_eq!(
                back.predicted_bmbp.map(f64::to_bits),
                rec.predicted_bmbp.map(f64::to_bits)
            );
            assert_eq!(
                back.predicted_lognormal.map(f64::to_bits),
                rec.predicted_lognormal.map(f64::to_bits)
            );
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(Record::decode(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf.push(0);
        assert!(Record::decode(&buf).is_err());
    }

    #[test]
    fn invalid_fields_are_rejected() {
        // seq 0
        let mut buf = Vec::new();
        Record { seq: 1, ..sample() }.encode(&mut buf);
        // Patch seq (offset: 2+8 + 2+6 + 1+4 = 23) to zero.
        let seq_off = 2 + 8 + 2 + 6 + 1 + 4;
        buf[seq_off..seq_off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(Record::decode(&buf).is_err());

        // negative wait
        let mut buf = Vec::new();
        Record { wait: 1.0, ..sample() }.encode(&mut buf);
        let wait_off = seq_off + 8;
        buf[wait_off..wait_off + 8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(Record::decode(&buf).is_err());

        // unknown flag bit
        let mut buf = Vec::new();
        Record { predicted_bmbp: None, predicted_lognormal: None, ..sample() }.encode(&mut buf);
        let flags_off = buf.len() - 1;
        buf[flags_off] = 0b1000;
        assert!(Record::decode(&buf).is_err());

        // a tombstone flag on a record still carrying a wait is corrupt,
        // not a delete of a partition that also observed something
        buf[flags_off] = 0b100;
        assert!(Record::decode(&buf).is_err());

        // ...and a tombstone claiming feedback bits is equally corrupt
        let mut buf = Vec::new();
        Record { wait: 0.0, ..sample() }.encode(&mut buf);
        let flags_off = 2 + 8 + 2 + 6 + 1 + 4 + 8 + 8;
        buf[flags_off] |= 0b100;
        assert!(Record::decode(&buf).is_err());
    }

    #[test]
    fn tombstone_round_trip_and_constructor() {
        let t = Record::tombstone("site", "q", "65+", 7);
        assert!(t.tombstone);
        assert_eq!(t.wait, 0.0);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let back = Record::decode(&buf).unwrap();
        assert!(back.tombstone);
        assert_eq!(back, t);
    }
}
