//! Host-speed calibration.
//!
//! On a shared host the same code runs up to half again as slow from one
//! minute to the next, as other tenants come and go on the core's sibling
//! thread and in the shared cache. That shift slows every op running at
//! the time, so it can be measured and divided out: a fixed reference
//! computation, the [`Probe`], runs in short slices between ops on every
//! client thread, outside the op timings, and so sees the host the ops
//! next to it see. The median slice time of a timed region gives its
//! [`HostSpeed`], and every time the benchmark reports is scaled to a host
//! on which one slice takes [`REFERENCE_SLICE_NS`] (throughput inversely).
//! The ops do not follow the host exactly as the slices do (latency tails
//! move about half as much as medians), so this narrows the run-to-run
//! spread rather than removing it.
//!
//! The program under test never runs inside a slice, so a change to the
//! program moves the adjusted numbers as it moves the raw ones. The raw
//! numbers and the slice median are printed with every result.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use crate::stats;

/// The slice time the adjusted numbers are scaled to: about the median
/// slice on a 2-core cloud VM when its host is moderately busy.
pub const REFERENCE_SLICE_NS: f64 = 150_000.0;

/// Map lookups per slice.
const LOOKUPS: usize = 50;
/// Keys the reference map cycles through (a working set of about 1 MB).
const KEYS: u64 = 4_096;
/// Rows of the reference document, and passes decoding it per slice.
const DOC_ROWS: usize = 40;
const DECODE_PASSES: usize = 3;
/// Op time between two slices on one client thread.
pub const SLICE_PERIOD: Duration = Duration::from_millis(8);
/// Slices run just before and just after each set-up.
pub const SETUP_BURST: usize = 16;

/// Per-thread reference state. A slice does two kinds of work, because a
/// busy host slows them by different amounts and the workloads mix them:
/// catalog-like lookups (string keys formatted, hashed, looked up in an
/// ordered map whose size stays the same, small records rewritten) and
/// scan-like decoding (JSON-ish rows split into typed fields). With only
/// the first, query adjustments overshot by a third of the host's swing.
pub struct Probe {
    map: BTreeMap<String, Vec<u8>>,
    x: u64,
    doc: String,
    last: Instant,
    /// Wall time of every timed slice, in nanoseconds.
    pub slices: Vec<u64>,
}

impl Probe {
    /// A probe whose map is already at its steady size.
    pub fn new() -> Probe {
        let mut p = Probe {
            map: BTreeMap::new(),
            x: 0x9e37_79b9_7f4a_7c15,
            doc: (0..DOC_ROWS)
                .map(|i| {
                    format!(
                        "{{\"id\":{i},\"name\":\"row_{i:04}\",\"amount\":{}.25,\"flag\":{}}}\n",
                        i * 37,
                        i % 2 == 0
                    )
                })
                .collect(),
            last: Instant::now(),
            slices: Vec::new(),
        };
        for _ in 0..8 * KEYS as usize / LOOKUPS {
            std::hint::black_box(p.lookups());
        }
        p
    }

    fn work(&mut self) -> u64 {
        self.lookups().wrapping_add(self.decode())
    }

    fn lookups(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = (self.x >> 33) % KEYS;
            let key = format!("probe.schema_{:03}.table_{k:05}", k % 97);
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            let h = h.finish();
            match self.map.get_mut(&key) {
                Some(v) => {
                    let text = format!("{{\"v\":{h},\"n\":{}}}", v.len());
                    let n: u64 = text[5..text.find(',').unwrap_or(6)].parse().unwrap_or(0);
                    v.rotate_left(1);
                    acc = acc.wrapping_add(n ^ u64::from(v[0]));
                }
                None => {
                    let len = 64 + (h % 192) as usize;
                    self.map
                        .insert(key, (0..len).map(|i| (h >> (i % 8)) as u8).collect());
                }
            }
            if self.x & 7 == 0 {
                let other = (k + 1) % KEYS;
                self.map
                    .remove(&format!("probe.schema_{:03}.table_{other:05}", other % 97));
            }
        }
        acc
    }

    fn decode(&self) -> u64 {
        let mut rows: Vec<Vec<(String, Field)>> = Vec::with_capacity(DOC_ROWS);
        let mut acc = 0u64;
        for _ in 0..DECODE_PASSES {
            rows.clear();
            for line in self.doc.lines() {
                let body = line.trim_start_matches('{').trim_end_matches('}');
                let row = body
                    .split(',')
                    .map(|field| {
                        let (k, v) = field.split_once(':').unwrap_or((field, ""));
                        (k.trim_matches('"').to_string(), Field::parse(v))
                    })
                    .collect();
                rows.push(row);
            }
            acc = rows
                .iter()
                .fold(acc, |a, r| a.wrapping_add(r[0].1.weight()));
        }
        acc
    }

    /// Run one untimed slice to bring the probe's code and state back
    /// into the core's caches after the ops, then one timed slice.
    pub fn slice(&mut self) {
        std::hint::black_box(self.work());
        let t0 = Instant::now();
        std::hint::black_box(self.work());
        self.last = Instant::now();
        self.slices.push((self.last - t0).as_nanos() as u64);
    }

    /// Run a slice if [`SLICE_PERIOD`] has passed since the last one.
    #[inline]
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SLICE_PERIOD {
            self.slice();
        }
    }

    /// Run `n` slices back to back.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.slice();
        }
    }

    /// Start the period afresh, so the next slice waits a whole one.
    pub fn restart_period(&mut self) {
        self.last = Instant::now();
    }
}

/// A decoded field of a reference row.
enum Field {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl Field {
    fn parse(v: &str) -> Field {
        if let Some(s) = v.strip_prefix('"') {
            Field::Str(s.trim_end_matches('"').to_string())
        } else if v == "true" || v == "false" {
            Field::Bool(v == "true")
        } else if v.contains('.') {
            Field::Float(v.parse().unwrap_or(0.0))
        } else {
            Field::Int(v.parse().unwrap_or(0))
        }
    }

    fn weight(&self) -> u64 {
        match self {
            Field::Int(i) => *i as u64,
            Field::Float(f) => *f as u64,
            Field::Str(s) => s.len() as u64,
            Field::Bool(b) => u64::from(*b),
        }
    }
}

/// How fast the host ran a stretch of the benchmark, from the slices
/// timed in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    pub slices: usize,
    pub median_slice_ns: f64,
}

impl HostSpeed {
    pub fn of(slices: &[u64]) -> HostSpeed {
        let ns: Vec<f64> = slices.iter().map(|&s| s as f64).collect();
        HostSpeed {
            slices: slices.len(),
            median_slice_ns: stats::median(&ns),
        }
    }

    /// Factor that scales a time measured on this host to the reference
    /// host; 1 when no slice was timed.
    pub fn time_factor(&self) -> f64 {
        if self.median_slice_ns > 0.0 {
            REFERENCE_SLICE_NS / self.median_slice_ns
        } else {
            1.0
        }
    }

    pub fn time(&self, t: f64) -> f64 {
        t * self.time_factor()
    }

    pub fn rate(&self, r: f64) -> f64 {
        r / self.time_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down_and_rates_up() {
        let slow = HostSpeed::of(&[300_000, 250_000, 350_000]);
        assert_eq!(slow.slices, 3);
        assert_eq!(slow.median_slice_ns, 300_000.0);
        assert!((slow.time(10.0) - 5.0).abs() < 1e-12);
        assert!((slow.rate(10.0) - 20.0).abs() < 1e-12);
        let none = HostSpeed::of(&[]);
        assert_eq!(none.time(10.0), 10.0);
        assert_eq!(none.rate(10.0), 10.0);
    }

    #[test]
    fn every_slice_does_the_same_work() {
        let mut a = Probe::new();
        let mut b = Probe::new();
        assert_eq!(a.map.len(), b.map.len());
        let size = a.map.len();
        assert_eq!(a.work(), b.work());
        // The working set stays near its steady size.
        for _ in 0..50 {
            a.work();
        }
        let drift = a.map.len().abs_diff(size) as f64 / size as f64;
        assert!(drift < 0.1, "map size moved by {drift}");
    }

    #[test]
    fn decoding_reads_every_row_into_typed_fields() {
        let p = Probe::new();
        let ids: u64 = (0..DOC_ROWS as u64).sum();
        assert_eq!(p.decode(), DECODE_PASSES as u64 * ids);
        let row = p.doc.lines().nth(3).unwrap();
        let body = row.trim_start_matches('{').trim_end_matches('}');
        let fields: Vec<Field> = body
            .split(',')
            .map(|f| Field::parse(f.split_once(':').unwrap().1))
            .collect();
        assert!(matches!(fields[0], Field::Int(3)));
        assert!(matches!(&fields[1], Field::Str(s) if s == "row_0003"));
        assert!(matches!(fields[2], Field::Float(f) if f == 111.25));
        assert!(matches!(fields[3], Field::Bool(false)));
    }

    #[test]
    fn tick_runs_a_slice_only_after_the_period() {
        let mut p = Probe::new();
        p.restart_period();
        p.tick();
        assert!(p.slices.is_empty());
        std::thread::sleep(SLICE_PERIOD);
        p.tick();
        assert_eq!(p.slices.len(), 1);
        p.burst(3);
        assert_eq!(p.slices.len(), 4);
    }
}
