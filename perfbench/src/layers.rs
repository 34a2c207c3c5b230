//! Per-layer measurements of the traced rounds. Every number here comes
//! from timing calls into a layer's public functions from this file, or
//! from the runtime's existing stats and telemetry registry; nothing is
//! added to the program.

use crate::measure::{files_matching, Spans};
use chimera_exec::{Engine, EngineConfig};
use chimera_model::Schema;
use chimera_net::Request;
use chimera_persist::{JobRecord, ShardSnapshot};
use chimera_rules::TriggerDef;
use chimera_runtime::{Job, RuntimeStats};
use chimera_telemetry::{bucket_ceil, bucket_floor, MetricsSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric a traced run prints, with its unit, apart from
/// the three `telemetry.*` figures the run computes from both kinds of
/// round. A layer that does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.request_encode_ns", "ns"),
    ("net.request_decode_ns", "ns"),
    ("net.frame_bytes_per_event", "B"),
    ("net.client_submit_us", "us"),
    ("runtime.submit_us", "us"),
    ("runtime.jobs_per_fsync", "ratio"),
    ("runtime.submits_blocked", "count"),
    ("stage.queue_wait.p50_us", "us"),
    ("stage.queue_wait.share", "ratio"),
    ("stage.append.p50_us", "us"),
    ("stage.append.share", "ratio"),
    ("stage.execute.p50_us", "us"),
    ("stage.execute.share", "ratio"),
    ("stage.commit.p50_us", "us"),
    ("stage.commit.share", "ratio"),
    ("stage.reply.p50_us", "us"),
    ("stage.reply.share", "ratio"),
    ("stage.net_frame_decode.p50_us", "us"),
    ("stage.net_frame_decode.share", "ratio"),
    ("stage.net_handler.p50_us", "us"),
    ("stage.net_handler.share", "ratio"),
    ("stage.rehydrate.p50_us", "us"),
    ("stage.rehydrate.share", "ratio"),
    ("persist.wal_bytes_per_event", "B"),
    ("persist.jobrecord_encode_ns", "ns"),
    ("persist.jobrecord_decode_ns", "ns"),
    ("persist.fsync_us_mean", "us"),
    ("persist.fsyncs_per_kevent", "count"),
    ("persist.tsnap_bytes_mean", "B"),
    ("persist.tsnap_read_us", "us"),
    ("persist.snapshot_read_ms", "ms"),
    ("persist.jobs_replayed", "count"),
    ("lifecycle.evictions_per_kjob", "count"),
    ("lifecycle.rehydrations_per_kjob", "count"),
    ("exec.block_us", "us"),
    ("exec.commit_us", "us"),
    ("exec.considerations_per_event", "ratio"),
    ("exec.executions_per_event", "ratio"),
    ("rules.rules_checked_per_event", "ratio"),
    ("rules.check_rounds_per_block", "ratio"),
    ("rules.filter_skip_ratio", "ratio"),
    ("calculus.ts_probes_per_event", "ratio"),
    ("calculus.memo_hit_ratio", "ratio"),
    ("calculus.probe_lookups_per_event", "ratio"),
    ("lang.trigger_parse_us", "us"),
    ("span.net.self_ms", "ms"),
    ("span.runtime.self_ms", "ms"),
    ("span.persist.self_ms", "ms"),
    ("span.exec.self_ms", "ms"),
    ("span.lang.self_ms", "ms"),
];

/// The stage histograms of the registry the per-layer table reads.
const STAGES: [&str; 8] = [
    "queue_wait",
    "append",
    "execute",
    "commit",
    "reply",
    "net_frame_decode",
    "net_handler",
    "rehydrate",
];

pub type Layers = BTreeMap<String, f64>;

fn put(out: &mut Layers, name: &str, value: f64) {
    debug_assert!(
        PER_LAYER.iter().any(|(n, _)| *n == name),
        "unlisted metric {name}"
    );
    out.insert(name.to_string(), value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runtime counters and the registry's stage histograms. Each stage's
/// share is its estimated summed time (bucket midpoints) over the sum of
/// all eight stages.
pub fn runtime_layers(stats: &RuntimeStats, snap: &MetricsSnapshot, events: u64, out: &mut Layers) {
    let jobs = stats.jobs_processed as f64;
    put(
        out,
        "runtime.jobs_per_fsync",
        ratio(stats.wal_appends as f64, stats.wal_syncs as f64),
    );
    put(out, "runtime.submits_blocked", stats.submits_blocked as f64);
    put(
        out,
        "persist.fsync_us_mean",
        ratio(stats.wal_sync_nanos as f64 / 1e3, stats.wal_syncs as f64),
    );
    put(
        out,
        "persist.fsyncs_per_kevent",
        ratio(stats.wal_syncs as f64 * 1e3, events as f64),
    );
    put(
        out,
        "lifecycle.evictions_per_kjob",
        ratio(stats.evictions as f64 * 1e3, jobs),
    );
    put(
        out,
        "lifecycle.rehydrations_per_kjob",
        ratio(stats.rehydrations as f64 * 1e3, jobs),
    );
    let sums: Vec<f64> = STAGES
        .iter()
        .map(|s| {
            snap.hist(s).map_or(0.0, |h| {
                h.buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| n as f64 * (bucket_floor(i) + bucket_ceil(i)) as f64 / 2.0)
                    .sum()
            })
        })
        .collect();
    let total: f64 = sums.iter().sum();
    for (s, sum) in STAGES.iter().zip(&sums) {
        let p50 = snap.hist(s).map_or(0, |h| h.p50());
        put(out, &format!("stage.{s}.p50_us"), p50 as f64 / 1e3);
        put(out, &format!("stage.{s}.share"), ratio(*sum, total));
    }
}

/// The durable files a round left: job-log bytes per event, tenant
/// snapshot sizes, and the time `ShardSnapshot::read` takes on every
/// snapshot file recovery will read.
pub fn store_layers(
    dir: &Path,
    events: u64,
    spans: &mut Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let wal: u64 = files_matching(dir, &|n| n == "jobs.wal")
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    put(
        out,
        "persist.wal_bytes_per_event",
        ratio(wal as f64, events as f64),
    );
    let tsnaps = files_matching(dir, &|n| n.starts_with("tenant-") && n.ends_with(".tsnap"));
    let snaps = files_matching(dir, &|n| n == "snap.chi");
    let tsnap_bytes: u64 = tsnaps
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    put(
        out,
        "persist.tsnap_bytes_mean",
        ratio(tsnap_bytes as f64, tsnaps.len() as f64),
    );
    let read_all = |paths: &[std::path::PathBuf], spans: &mut Spans| -> Result<f64, String> {
        let t = Instant::now();
        for p in paths {
            let snap = spans
                .span("persist", "snapshot_read", |_| ShardSnapshot::read(p))
                .map_err(|e| format!("read {}: {e}", p.display()))?;
            black_box(snap.ok_or_else(|| format!("{} vanished", p.display()))?);
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let tsnap_s = read_all(&tsnaps, spans)?;
    let snap_s = read_all(&snaps, spans)?;
    put(
        out,
        "persist.tsnap_read_us",
        ratio(tsnap_s * 1e6, tsnaps.len() as f64),
    );
    put(out, "persist.snapshot_read_ms", (tsnap_s + snap_s) * 1e3);
    Ok(())
}

/// The durable form of a job, as the runtime's job log records it.
fn job_record(job: &Job) -> Option<JobRecord> {
    Some(match job {
        Job::Begin => JobRecord::Begin,
        Job::ExecBlock(ops) => JobRecord::ExecBlock(ops.clone()),
        Job::RaiseExternal(evs) => JobRecord::RaiseExternal(evs.clone()),
        Job::Commit => JobRecord::Commit,
        Job::Rollback => JobRecord::Rollback,
        Job::DefineTriggerSource(src) => JobRecord::DefineTriggerSource(src.clone()),
        _ => return None,
    })
}

/// Mean ns of `JobRecord::encode` and `decode` over the round's jobs.
pub fn jobrecord_layers(jobs: &[Job], spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
    let records: Vec<JobRecord> = jobs.iter().filter_map(job_record).collect();
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> = spans.span("persist", "jobrecord_encode", |_| {
        records.iter().map(|r| black_box(r.encode())).collect()
    });
    let enc_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    spans.span("persist", "jobrecord_decode", |_| -> Result<(), String> {
        for (b, r) in bytes.iter().zip(&records) {
            let back = JobRecord::decode(black_box(b)).map_err(|e| format!("decode: {e}"))?;
            if &back != r {
                return Err("JobRecord did not round-trip".into());
            }
        }
        Ok(())
    })?;
    let dec_ns = t.elapsed().as_nanos() as f64;
    put(
        out,
        "persist.jobrecord_encode_ns",
        ratio(enc_ns, records.len() as f64),
    );
    put(
        out,
        "persist.jobrecord_decode_ns",
        ratio(dec_ns, records.len() as f64),
    );
    Ok(())
}

/// Mean ns of `Request::encode` and `decode` over the round's frames,
/// and the frame bytes per event.
pub fn request_layers(
    frames: &[Request],
    events: u64,
    spans: &mut Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> = spans.span("net", "request_encode", |_| {
        frames.iter().map(|f| black_box(f.encode())).collect()
    });
    let enc_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    spans.span("net", "request_decode", |_| -> Result<(), String> {
        for (b, f) in bytes.iter().zip(frames) {
            let back = Request::decode(black_box(b)).map_err(|e| format!("decode: {e}"))?;
            if &back != f {
                return Err("Request did not round-trip".into());
            }
        }
        Ok(())
    })?;
    let dec_ns = t.elapsed().as_nanos() as f64;
    let total: usize = bytes.iter().map(Vec::len).sum();
    put(
        out,
        "net.request_encode_ns",
        ratio(enc_ns, frames.len() as f64),
    );
    put(
        out,
        "net.request_decode_ns",
        ratio(dec_ns, frames.len() as f64),
    );
    put(
        out,
        "net.frame_bytes_per_event",
        ratio(total as f64, events as f64),
    );
    Ok(())
}

/// Define tenant triggers from source text on a private engine, the way
/// a runtime worker does: parse (the `lang` layer), lower, define.
fn define_source(engine: &mut Engine, src: &str, spans: &mut Spans) -> Result<(), String> {
    let schema = engine.schema().clone();
    let decls = spans
        .span("lang", "parse_trigger_decls", |_| {
            chimera_lang::parse_trigger_decls(src, &schema)
        })
        .map_err(|e| format!("parse: {e}"))?;
    for d in decls {
        let def = d.lower(&schema).map_err(|e| format!("lower: {e}"))?;
        engine
            .define_trigger(def)
            .map_err(|e| format!("define: {e}"))?;
    }
    Ok(())
}

/// Replay a sample tenant's job stream on a private `Engine` with the
/// runtime's schema, rules and engine config, timing each block and each
/// commit, and read the rule layer's and the calculus' counters.
pub fn replay_layers(
    schema: &Schema,
    triggers: &[TriggerDef],
    config: &EngineConfig,
    jobs: &[Job],
    spans: &mut Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let mut engine = Engine::with_config(schema.clone(), config.clone());
    for def in triggers {
        engine
            .define_trigger(def.clone())
            .map_err(|e| format!("define: {e}"))?;
    }
    let (mut blocks, mut block_s, mut commits, mut commit_s) = (0u64, 0.0, 0u64, 0.0);
    for job in jobs {
        let t = Instant::now();
        match job {
            Job::Begin => engine.begin().map(drop),
            Job::ExecBlock(ops) => {
                let r = spans.span("exec", "exec_block", |_| engine.exec_block(ops).map(drop));
                blocks += 1;
                block_s += t.elapsed().as_secs_f64();
                r
            }
            Job::RaiseExternal(evs) => {
                let r = spans.span("exec", "raise_external", |_| {
                    engine.raise_external(evs).map(drop)
                });
                blocks += 1;
                block_s += t.elapsed().as_secs_f64();
                r
            }
            Job::Commit => {
                let r = spans.span("exec", "commit", |_| engine.commit());
                commits += 1;
                commit_s += t.elapsed().as_secs_f64();
                r
            }
            Job::Rollback => engine.rollback(),
            Job::DefineTriggerSource(src) => {
                spans.span("exec", "define_trigger_source", |s| {
                    define_source(&mut engine, src, s)
                })?;
                Ok(())
            }
            _ => return Err("unexpected job kind in a replay".into()),
        }
        .map_err(|e| format!("replay: {e}"))?;
    }
    let st = engine.stats();
    let sup = engine.support_stats();
    let ev = st.events as f64;
    put(out, "exec.block_us", ratio(block_s * 1e6, blocks as f64));
    put(out, "exec.commit_us", ratio(commit_s * 1e6, commits as f64));
    put(
        out,
        "exec.considerations_per_event",
        ratio(st.considerations as f64, ev),
    );
    put(
        out,
        "exec.executions_per_event",
        ratio(st.executions as f64, ev),
    );
    put(
        out,
        "rules.rules_checked_per_event",
        ratio(sup.rules_checked as f64, ev),
    );
    put(
        out,
        "rules.check_rounds_per_block",
        ratio(sup.check_rounds as f64, blocks as f64),
    );
    put(
        out,
        "rules.filter_skip_ratio",
        ratio(sup.skipped_by_filter as f64, sup.rules_checked as f64),
    );
    put(
        out,
        "calculus.ts_probes_per_event",
        ratio(sup.ts_probes as f64, ev),
    );
    let lookups = (sup.ts_probes + sup.probe_memo_hits) as f64;
    put(
        out,
        "calculus.memo_hit_ratio",
        ratio(sup.probe_memo_hits as f64, lookups),
    );
    put(out, "calculus.probe_lookups_per_event", ratio(lookups, ev));
    Ok(())
}

/// Mean µs of `parse_trigger_decls` over trigger sources.
pub fn parse_layers(
    schema: &Schema,
    sources: &[String],
    spans: &mut Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    for src in sources {
        let decls = spans
            .span("lang", "parse_trigger_decls", |_| {
                chimera_lang::parse_trigger_decls(src, schema)
            })
            .map_err(|e| format!("parse: {e}"))?;
        black_box(decls);
    }
    put(
        out,
        "lang.trigger_parse_us",
        ratio(t.elapsed().as_secs_f64() * 1e6, sources.len() as f64),
    );
    Ok(())
}

/// Self time per layer over the spans recorded since `mark`.
pub fn span_layers(spans: &Spans, mark: usize, out: &mut Layers) {
    for (layer, self_ns) in spans.self_ns_since(mark) {
        let name = format!("span.{layer}.self_ms");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            out.insert(name, self_ns as f64 / 1e6);
        }
    }
}
