//! Wire codec for [`RegistrySnapshot`] — the whole-workspace metrics
//! payload served by `Request::Metrics`.
//!
//! The encoding is canonical and strictly validated on decode, the same
//! posture as [`WindowPatch`](crate::WindowPatch): metric keys must be
//! strictly sorted (the registry snapshots from a `BTreeMap`, so a
//! compliant encoder always produces sorted keys), histogram bucket
//! arrays must be exactly [`HISTOGRAM_BUCKETS`] long with a `max` field
//! that lands in the highest occupied bucket, and every count is bounded
//! before any allocation. A truncated or bit-flipped frame surfaces as a
//! clean [`DecodeError`] — never a panic, never a silently wrong
//! snapshot that validates.

use dataspread_grid::codec::{corrupt, put_str, put_u32, put_u64, put_u8, Reader};
use dataspread_grid::DecodeError;
use dataspread_obs::{
    Event, Health, HistogramSnapshot, RegistrySnapshot, SheetHealth, HISTOGRAM_BUCKETS,
};

use crate::types::{health_from_u8, health_to_u8};

/// Upper bound on entries in any one section (counters, gauges,
/// histograms, events, sheets) of a metrics frame. Generous — a real
/// workspace produces tens of series per sheet — but low enough that a
/// corrupt count cannot drive a multi-gigabyte allocation.
pub const MAX_METRIC_ENTRIES: u32 = 1 << 20;

fn check_count(what: &str, n: u32) -> Result<usize, DecodeError> {
    if n > MAX_METRIC_ENTRIES {
        return Err(corrupt(format!("metrics {what} count {n} too large")));
    }
    Ok(n as usize)
}

fn check_sorted(what: &str, prev: Option<&str>, key: &str) -> Result<(), DecodeError> {
    if let Some(p) = prev {
        if p >= key {
            return Err(corrupt(format!(
                "metrics {what} keys not strictly sorted: {p:?} then {key:?}"
            )));
        }
    }
    Ok(())
}

fn encode_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    debug_assert_eq!(h.buckets.len(), HISTOGRAM_BUCKETS);
    for &b in &h.buckets {
        put_u64(out, b);
    }
    put_u64(out, h.sum);
    put_u64(out, h.max);
}

fn decode_histogram(r: &mut Reader<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    let sum = r.u64()?;
    let max = r.u64()?;
    // Canonical-form check: `max` must fall in the highest occupied
    // bucket (bucket 0 holds exact zeros; bucket i holds
    // [2^(i-1), 2^i - 1]). An empty histogram has sum == max == 0.
    let highest = buckets.iter().rposition(|&b| b != 0);
    match highest {
        None => {
            if sum != 0 || max != 0 {
                return Err(corrupt("empty histogram with non-zero sum/max"));
            }
        }
        Some(i) => {
            let max_bucket = (u64::BITS - max.leading_zeros()) as usize;
            if max_bucket != i {
                return Err(corrupt(format!(
                    "histogram max {max} lands in bucket {max_bucket}, highest occupied is {i}"
                )));
            }
        }
    }
    Ok(HistogramSnapshot { buckets, sum, max })
}

fn encode_event(out: &mut Vec<u8>, e: &Event) {
    put_u64(out, e.ts_ms);
    put_str(out, &e.kind);
    put_str(out, &e.sheet);
    put_str(out, &e.op);
    put_u64(out, e.duration_ns);
    put_u64(out, e.ticket);
    put_str(out, &e.outcome);
}

fn decode_event(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
    Ok(Event {
        ts_ms: r.u64()?,
        kind: r.str()?,
        sheet: r.str()?,
        op: r.str()?,
        duration_ns: r.u64()?,
        ticket: r.u64()?,
        outcome: r.str()?,
    })
}

fn encode_sheet_health(out: &mut Vec<u8>, s: &SheetHealth) {
    put_str(out, &s.sheet);
    put_u8(out, health_to_u8(s.health));
    match &s.cause {
        Some(cause) => {
            put_u8(out, 1);
            put_str(out, cause);
        }
        None => put_u8(out, 0),
    }
    match s.since_ms {
        Some(ms) => {
            put_u8(out, 1);
            put_u64(out, ms);
        }
        None => put_u8(out, 0),
    }
}

fn decode_sheet_health(r: &mut Reader<'_>) -> Result<SheetHealth, DecodeError> {
    let sheet = r.str()?;
    let health = health_from_u8(r.u8()?)?;
    let cause = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        t => return Err(corrupt(format!("bad option tag {t} for degrade cause"))),
    };
    let since_ms = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        t => return Err(corrupt(format!("bad option tag {t} for degrade time"))),
    };
    if health == Health::Healthy && (cause.is_some() || since_ms.is_some()) {
        return Err(corrupt(format!(
            "healthy sheet {sheet:?} carries degrade cause/time"
        )));
    }
    Ok(SheetHealth {
        sheet,
        health,
        cause,
        since_ms,
    })
}

/// Encode a whole registry snapshot. The caller is expected to pass a
/// snapshot straight from `MetricsRegistry::snapshot()` (sorted keys,
/// canonical histograms); `decode_metrics` rejects anything else.
pub fn encode_metrics(snap: &RegistrySnapshot, out: &mut Vec<u8>) {
    put_u32(out, snap.counters.len() as u32);
    for (key, v) in &snap.counters {
        put_str(out, key);
        put_u64(out, *v);
    }
    put_u32(out, snap.gauges.len() as u32);
    for (key, v) in &snap.gauges {
        put_str(out, key);
        put_u64(out, *v as u64);
    }
    put_u32(out, snap.histograms.len() as u32);
    for (key, h) in &snap.histograms {
        put_str(out, key);
        encode_histogram(out, h);
    }
    put_u32(out, snap.events.len() as u32);
    for e in &snap.events {
        encode_event(out, e);
    }
    put_u64(out, snap.events_dropped);
    put_u32(out, snap.sheets.len() as u32);
    for s in &snap.sheets {
        encode_sheet_health(out, s);
    }
}

/// Decode and validate a registry snapshot. Strict: sorted-key order,
/// exact bucket counts, plausible histogram `max`, bounded section
/// sizes — a flipped bit either fails here or produces bytes that no
/// longer re-encode identically (covered by the property tests).
pub fn decode_metrics(r: &mut Reader<'_>) -> Result<RegistrySnapshot, DecodeError> {
    let n = check_count("counter", r.u32()?)?;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let key = r.str()?;
        check_sorted(
            "counter",
            counters.last().map(|(k, _): &(String, u64)| k.as_str()),
            &key,
        )?;
        let v = r.u64()?;
        counters.push((key, v));
    }
    let n = check_count("gauge", r.u32()?)?;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let key = r.str()?;
        check_sorted(
            "gauge",
            gauges.last().map(|(k, _): &(String, i64)| k.as_str()),
            &key,
        )?;
        let v = r.u64()? as i64;
        gauges.push((key, v));
    }
    let n = check_count("histogram", r.u32()?)?;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let key = r.str()?;
        check_sorted(
            "histogram",
            histograms
                .last()
                .map(|(k, _): &(String, HistogramSnapshot)| k.as_str()),
            &key,
        )?;
        let h = decode_histogram(r)?;
        histograms.push((key, h));
    }
    let n = check_count("event", r.u32()?)?;
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        events.push(decode_event(r)?);
    }
    let events_dropped = r.u64()?;
    let n = check_count("sheet", r.u32()?)?;
    let mut sheets: Vec<SheetHealth> = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let s = decode_sheet_health(r)?;
        check_sorted("sheet", sheets.last().map(|p| p.sheet.as_str()), &s.sheet)?;
        sheets.push(s);
    }
    Ok(RegistrySnapshot {
        counters,
        gauges,
        histograms,
        events,
        events_dropped,
        sheets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_of(samples: &[u64]) -> HistogramSnapshot {
        let h = dataspread_obs::Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    fn sample_snapshot() -> RegistrySnapshot {
        RegistrySnapshot {
            counters: vec![
                ("wal_fsyncs{sheet=\"a\"}".into(), 42),
                ("wal_fsyncs{sheet=\"b\"}".into(), 7),
            ],
            gauges: vec![("in_flight".into(), -3), ("resident_bytes".into(), 1 << 30)],
            histograms: vec![
                (
                    "apply_edit_ns{sheet=\"a\"}".into(),
                    histogram_of(&[0, 1, 900, 1 << 40]),
                ),
                ("fsync_ns".into(), histogram_of(&[5000, 5001, 123_456])),
            ],
            events: vec![Event {
                ts_ms: 1_700_000_000_000,
                kind: "slow_op".into(),
                sheet: "a".into(),
                op: "apply_edit".into(),
                duration_ns: 55_000_000,
                ticket: 9,
                outcome: "ok".into(),
            }],
            events_dropped: 2,
            sheets: vec![
                SheetHealth {
                    sheet: "a".into(),
                    health: Health::Degraded,
                    cause: Some("fsync failed: Input/output error".into()),
                    since_ms: Some(1_700_000_000_123),
                },
                SheetHealth {
                    sheet: "b".into(),
                    health: Health::Healthy,
                    cause: None,
                    since_ms: None,
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_metrics(&mut r).unwrap();
        r.expect_done("metrics").unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = RegistrySnapshot::default();
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        assert_eq!(decode_metrics(&mut Reader::new(&buf)).unwrap(), snap);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len]);
            let res = decode_metrics(&mut r).and_then(|s| {
                r.expect_done("metrics")?;
                Ok(s)
            });
            assert!(res.is_err(), "truncation to {len} bytes decoded");
        }
    }

    #[test]
    fn unsorted_keys_are_rejected() {
        let mut snap = sample_snapshot();
        snap.counters.swap(0, 1);
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        assert!(decode_metrics(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn implausible_histogram_max_is_rejected() {
        let mut snap = sample_snapshot();
        // Claim a max far above the highest occupied bucket.
        snap.histograms[0].1.max = u64::MAX;
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        assert!(decode_metrics(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn healthy_sheet_with_cause_is_rejected() {
        let mut snap = sample_snapshot();
        snap.sheets[1].cause = Some("ghost".into());
        let mut buf = Vec::new();
        encode_metrics(&snap, &mut buf);
        assert!(decode_metrics(&mut Reader::new(&buf)).is_err());
    }
}
