//! The three workloads and the closed loop that drives them.
//!
//! Each workload is a seeded, fixed sequence of operations run by
//! closed-loop clients (a client issues its next op only when the last
//! one returned) against one in-process catalog node whose injected
//! latencies (DB round trip, API hop, storage, STS) are all zero, so
//! every number measures this program's CPU and locking. Each client
//! thread also runs host-speed probe slices between its ops (see
//! [`crate::calib`]), outside the op timings.

pub mod ddl_churn;
pub mod metadata_zipf;
pub mod query_tpcds;

use std::sync::Barrier;
use std::time::Instant;

use uc_bench::{World, WorldConfig};
use uc_catalog::service::Context;
use uc_catalog::{UcConfig, UnityCatalog};

use crate::calib::{HostSpeed, Probe};
use crate::counters::{Counters, EndGauges};
use crate::stats::Latency;
use crate::trace::{self, SelfTimeSummary, Span, SpanLog, Spans};

/// What one op reports besides success.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpWork {
    pub scans: u64,
    pub files: u64,
}

/// A workload, set up and warmed, ready for its timed region.
pub trait Workload: Sized + Sync {
    /// The world under measurement.
    fn world(&self) -> &World;
    /// Closed-loop clients (one thread each).
    fn clients(&self) -> usize;
    /// Ops each client runs in the timed region.
    fn ops_per_client(&self) -> usize;
    /// Op `i` of client `c`, with every layer call wrapped in `spans`.
    fn op<S: Spans>(&self, c: usize, i: usize, spans: &mut S) -> Result<OpWork, String>;
    /// The seeded sample of keys checked across nodes at the end of a run,
    /// each with the principal that reads it.
    fn sample_keys(&self) -> Vec<(Context, String)>;
    /// Spans one op records when traced (op span included), to size the
    /// span log up front.
    fn spans_per_op(&self) -> usize {
        2
    }
}

/// Result of one timed region.
#[derive(Debug, Clone)]
pub struct Arm {
    pub ops: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Latency over every untraced op of the region.
    pub latency: Latency,
    /// Host speed over the whole region, from the clients' probe slices.
    pub host: HostSpeed,
    pub chunks: Vec<Chunk>,
    /// Counter deltas across the timed region.
    pub counters: Counters,
    pub end: EndGauges,
    pub work: OpWork,
    pub errors: Vec<String>,
    /// One span log per traced (client, chunk).
    pub spans: Vec<Vec<Span>>,
    pub self_time: Option<SelfTimeSummary>,
}

/// One chunk of a timed region, all clients started together.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub traced: bool,
    pub ops: u64,
    pub wall_s: f64,
}

impl Arm {
    /// Throughput of the untraced or the traced chunks: their ops over
    /// their wall time.
    pub fn ops_per_s(&self, traced: bool) -> f64 {
        let (ops, wall_s) = self
            .chunks
            .iter()
            .filter(|c| c.traced == traced)
            .fold((0, 0.0), |(o, w), c| (o + c.ops, w + c.wall_s));
        if wall_s > 0.0 {
            ops as f64 / wall_s
        } else {
            0.0
        }
    }
}

impl Chunk {
    fn ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Share of throughput that tracing costs: one minus the median, over
/// the consecutive chunk pairs, of the traced chunk's throughput over the
/// untraced one's. The two chunks of a pair see nearly the same host; the
/// pairs alternate which runs first, so a chunk running faster for being
/// second of a pair cancels out; and the median drops the first pair,
/// whose first chunk also warms the client threads up.
pub fn tracing_overhead(chunks: &[Chunk]) -> f64 {
    let ratios: Vec<f64> = chunks
        .chunks_exact(2)
        .filter_map(|p| {
            let (u, t) = if p[1].traced {
                (&p[0], &p[1])
            } else {
                (&p[1], &p[0])
            };
            (u.traced != t.traced && u.ops_per_s() > 0.0).then(|| t.ops_per_s() / u.ops_per_s())
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        1.0 - crate::stats::median(&ratios)
    }
}

/// Error messages kept per run, so a broken build explains itself without
/// flooding the output.
const KEPT_ERRORS: usize = 5;

/// Chunks of a traced timed region.
pub const TRACE_CHUNKS: usize = 20;

/// Run the timed region: every client runs its ops back to back, all
/// starting together. When `traced`, the region is cut into
/// [`TRACE_CHUNKS`] chunks of equal op count, each started on all clients
/// together, and one chunk of each consecutive pair records spans, the
/// first of the pair and the second in turn (untraced, traced, traced,
/// untraced, …), so the untraced and traced halves see the same world
/// state and neither always runs second; see [`tracing_overhead`]. Each client runs a host-speed probe slice
/// between ops every [`crate::calib::SLICE_PERIOD`], outside the op
/// timings; the region's [`Arm::host`] comes from those slices.
pub fn measure<W: Workload>(w: &W, traced: bool) -> Arm {
    let n = w.ops_per_client();
    let clients = w.clients();
    let n_chunks = if traced {
        TRACE_CHUNKS.min(n.max(1))
    } else {
        1
    };
    let mut probes: Vec<Probe> = (0..clients).map(|_| Probe::new()).collect();
    let before = Counters::sample(&w.world().uc);
    let epoch = Instant::now();
    let mut arm = Arm {
        ops: (n * clients) as u64,
        failed: 0,
        wall_s: 0.0,
        latency: Latency::of(Vec::new()),
        host: HostSpeed::of(&[]),
        chunks: Vec::with_capacity(n_chunks),
        counters: Counters::default(),
        end: EndGauges::default(),
        work: OpWork::default(),
        errors: Vec::new(),
        spans: Vec::new(),
        self_time: None,
    };
    let mut nanos = Vec::with_capacity(n * clients);
    for k in 0..n_chunks {
        let ops = n * k / n_chunks..n * (k + 1) / n_chunks;
        let traced = traced && matches!(k % 4, 1 | 2);
        let barrier = Barrier::new(clients + 1);
        let (outs, wall_s) = std::thread::scope(|scope| {
            let handles: Vec<_> = probes
                .iter_mut()
                .enumerate()
                .map(|(c, probe)| {
                    let (barrier, ops) = (&barrier, ops.clone());
                    scope.spawn(move || {
                        if traced {
                            let first_op = (c * n + ops.start) as u64;
                            let mut log =
                                SpanLog::new(epoch, first_op, ops.len() * w.spans_per_op());
                            barrier.wait();
                            probe.restart_period();
                            let out = client_loop(w, c, ops, &mut log, probe);
                            (out, log.spans)
                        } else {
                            barrier.wait();
                            probe.restart_period();
                            let out = client_loop(w, c, ops, &mut trace::NoSpans, probe);
                            (out, Vec::new())
                        }
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let outs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (outs, start.elapsed().as_secs_f64())
        });
        arm.wall_s += wall_s;
        for (out, spans) in outs {
            if !traced {
                nanos.extend(out.nanos);
            }
            arm.failed += out.failed;
            arm.work.scans += out.work.scans;
            arm.work.files += out.work.files;
            arm.errors.extend(out.errors);
            if traced {
                arm.spans.push(spans);
            }
        }
        arm.chunks.push(Chunk {
            traced,
            ops: (ops.len() * clients) as u64,
            wall_s,
        });
    }
    arm.counters = Counters::sample(&w.world().uc).since(&before);
    arm.end = EndGauges::sample(&w.world().uc);
    arm.errors.truncate(KEPT_ERRORS);
    arm.latency = Latency::of(nanos);
    let slices: Vec<u64> = probes
        .iter()
        .flat_map(|p| p.slices.iter().copied())
        .collect();
    arm.host = HostSpeed::of(&slices);
    if traced {
        let parts: Vec<SelfTimeSummary> = arm.spans.iter().map(|s| trace::summarize(s)).collect();
        arm.self_time = Some(trace::merge(&parts));
    }
    arm
}

struct ClientOut {
    nanos: Vec<u64>,
    failed: u64,
    work: OpWork,
    errors: Vec<String>,
}

fn client_loop<W: Workload, S: Spans>(
    w: &W,
    c: usize,
    ops: std::ops::Range<usize>,
    spans: &mut S,
    probe: &mut Probe,
) -> ClientOut {
    let mut out = ClientOut {
        nanos: Vec::with_capacity(ops.len()),
        failed: 0,
        work: OpWork::default(),
        errors: Vec::new(),
    };
    for i in ops {
        probe.tick();
        let t0 = Instant::now();
        spans.begin_op();
        let r = w.op(c, i, spans);
        spans.end_op();
        out.nanos.push(t0.elapsed().as_nanos() as u64);
        match r {
            Ok(work) => {
                out.work.scans += work.scans;
                out.work.files += work.files;
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < KEPT_ERRORS {
                    out.errors.push(e);
                }
            }
        }
    }
    out
}

/// Compare the sample keys read on the measured node with the same keys
/// read on a fresh cache-disabled node over the same database. Returns
/// (keys checked, mismatches).
pub fn cross_check<W: Workload>(w: &W) -> (u64, Vec<String>) {
    let World { uc, ms, .. } = w.world();
    let fresh = UnityCatalog::new(
        uc.db().clone(),
        uc.object_store().clone(),
        UcConfig {
            cache: uc_catalog::cache::CacheConfig::disabled(),
            ..Default::default()
        },
        "verify-node",
    );
    let keys = w.sample_keys();
    let failures: Vec<String> = keys
        .iter()
        .filter_map(|(ctx, name)| {
            crate::check::same_answer(
                &uc.get_table(ctx, ms, name),
                &fresh.get_table(ctx, ms, name),
                name,
            )
            .err()
        })
        .collect();
    (keys.len() as u64, failures)
}

/// A world with every injected latency at zero.
pub fn world() -> World {
    World::build(&WorldConfig::default())
}

/// Read `names` round-robin as `ctx` until the audit trail has recorded
/// more than its capacity, so the timed region runs with the trail full
/// and evicting, as a long-running node does.
pub fn fill_audit(w: &World, ctx: &Context, names: &[String]) -> Result<(), String> {
    let target = UcConfig::default().audit_capacity as u64 * 11 / 10;
    let mut i = 0usize;
    while w.uc.audit_log().total_recorded() < target {
        for _ in 0..10_000 {
            let name = &names[i % names.len()];
            w.uc.get_table(ctx, &w.ms, name)
                .map_err(|e| format!("warm-up read {name}: {e}"))?;
            i += 1;
        }
    }
    Ok(())
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut impl rand::Rng, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(traced: bool, ops: u64, wall_s: f64) -> Chunk {
        Chunk {
            traced,
            ops,
            wall_s,
        }
    }

    #[test]
    fn tracing_overhead_is_the_median_pair_ratio() {
        // A slow first untraced chunk (warm-up) does not read as a
        // negative overhead; the other pairs, in either order, say
        // tracing costs 10 %.
        let chunks = [
            chunk(false, 100, 2.0),
            chunk(true, 100, 1.0 / 0.9),
            chunk(true, 100, 1.0 / 0.9),
            chunk(false, 100, 1.0),
            chunk(false, 200, 2.0),
            chunk(true, 200, 2.0 / 0.9),
        ];
        assert!((tracing_overhead(&chunks) - 0.1).abs() < 1e-9);
        assert_eq!(tracing_overhead(&chunks[..1]), 0.0);
        assert_eq!(
            tracing_overhead(&[chunk(false, 1, 1.0), chunk(false, 1, 1.0)]),
            0.0
        );
    }
}
