//! `cold_tenants`: the residency cache dominates.
//!
//! 1024 tenants share one durable worker under a residency cap of 64,
//! and a Zipf (s = 1.1) mix picks which tenant runs each transaction.
//! A tenant's first job defines its own triggers from concrete source
//! text; every transaction is `Begin`, four 16-event blocks, `Commit`, so
//! engine work per job is small and the cost is in evicting (tsnap
//! writes), rehydrating (which re-parses the tenant's trigger source)
//! and group commit. The generator keeps one transaction in flight, so
//! every eviction happens at a point fixed by the job order alone.
//!
//! Compaction is off (`snapshot_every = 0`): full snapshots would follow
//! group-commit batching, which varies from run to run, and so would what
//! recovery replays.

use crate::measure::{mix, us_since, Spans};
use crate::round::{capture_checked, timed_ingest, timed_setup, Ending, Plan, Round, Size};
use crate::rules::{item_schema, Replies};
use chimera_calculus::EventExpr;
use chimera_events::EventType;
use chimera_lifecycle::LifecycleConfig;
use chimera_model::{Oid, Schema};
use chimera_rules::TriggerDef;
use chimera_runtime::{Job, TenantId};
use chimera_workload::{ZipfTenants, ZipfTenantsConfig};
use std::collections::BTreeMap;
use std::time::Instant;

struct Shape {
    tenants: u64,
    cap: usize,
    txns: usize,
    blocks_per_txn: usize,
    events_per_block: usize,
    probes: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            tenants: 1024,
            cap: 64,
            txns: 600,
            blocks_per_txn: 4,
            events_per_block: 16,
            probes: 64,
        },
        Size::Smoke => Shape {
            tenants: 64,
            cap: 8,
            txns: 300,
            blocks_per_txn: 1,
            events_per_block: 8,
            probes: 8,
        },
    }
}

const ZIPF_S: f64 = 1.1;

/// The runtime-wide rules every tenant starts with: two conjunctions and
/// two precedences over eight external channels.
fn shared_rules(schema: &Schema) -> Vec<TriggerDef> {
    let item = schema.class_by_name("item").expect("item");
    let p = |n: u32| EventExpr::prim(EventType::external(item, 1000 + n));
    (0..4u32)
        .map(|i| {
            let (a, b) = (i % 8, (i + 3) % 8);
            let expr = if i % 2 == 0 {
                p(a).and(p(b))
            } else {
                p(a).prec(p(b))
            };
            TriggerDef::new(format!("shared{i}"), expr)
        })
        .collect()
}

/// A tenant's own triggers, as the source text it installs.
fn tenant_source(tenant: u64) -> String {
    let c = |k: u64| 1000 + (mix(tenant, k) % 8);
    format!(
        "define immediate trigger t{tenant}a for item\n  events external(item#{}) + external(item#{})\nend\n\
         define immediate trigger t{tenant}b for item\n  events external(item#{}) < external(item#{})\nend\n",
        c(0),
        c(1),
        c(2),
        c(3)
    )
}

fn block(schema: &Schema, seed: u64, n: usize) -> Job {
    let item = schema.class_by_name("item").expect("item");
    Job::RaiseExternal(
        (0..n as u64)
            .map(|i| {
                let k = mix(seed, i);
                let base = if k.is_multiple_of(2) { 1000 } else { 0 };
                (item, base + ((k >> 8) % 8) as u32, Oid((k >> 20) % 32 + 1))
            })
            .collect(),
    )
}

/// One transaction of the mix, with the tenant's trigger definition in
/// front when this is the tenant's first.
fn txn(schema: &Schema, shape: &Shape, tenant: u64, seed: u64, first: bool) -> Vec<Job> {
    let mut v = Vec::with_capacity(shape.blocks_per_txn + 3);
    if first {
        v.push(Job::DefineTriggerSource(tenant_source(tenant)));
    }
    v.push(Job::Begin);
    for b in 0..shape.blocks_per_txn {
        v.push(block(schema, mix(seed, b as u64), shape.events_per_block));
    }
    v.push(Job::Commit);
    v
}

pub fn round(
    size: Size,
    seed: u64,
    traced: bool,
    dir: &std::path::Path,
    spans: &mut Spans,
) -> Result<Round, String> {
    let shape = shape(size);
    let schema = item_schema();
    let triggers = shared_rules(&schema);
    let mix_ranks = ZipfTenants::new(ZipfTenantsConfig {
        tenants: shape.tenants,
        s: ZIPF_S,
        hot_boost: 1.0,
        seed,
    })
    .ranks(shape.txns);
    let mut txns: BTreeMap<u64, usize> = BTreeMap::new();
    let mut last_use: BTreeMap<u64, usize> = BTreeMap::new();
    let mut ingest: Vec<(u64, Vec<Job>)> = Vec::with_capacity(mix_ranks.len());
    for (i, &t) in mix_ranks.iter().enumerate() {
        let n = txns.entry(t).or_default();
        ingest.push((t, txn(&schema, &shape, t, mix(seed, i as u64), *n == 0)));
        *n += 1;
        last_use.insert(t, i);
    }
    // probes go to the least recently used tenants: with more distinct
    // tenants than the cap plus the probes, they are all evicted, and each
    // probe's own eviction takes a resident tenant, never a later target
    let mut by_age: Vec<(usize, u64)> = last_use.iter().map(|(&t, &i)| (i, t)).collect();
    by_age.sort_unstable();
    if by_age.len() < shape.cap + shape.probes + 16 {
        return Err(format!(
            "only {} distinct tenants: too few to probe evicted ones",
            by_age.len()
        ));
    }
    let probes: Vec<(u64, Vec<Job>)> = by_age[..shape.probes]
        .iter()
        .enumerate()
        .map(|(k, &(_, t))| {
            let seed = mix(seed, (shape.txns + k) as u64);
            (t, txn(&schema, &shape, t, seed, false))
        })
        .collect();
    let tenants: Vec<u64> = txns.keys().copied().collect();
    // the replayed sample is the tenant with the most transactions (the
    // lowest id among equals), so every round replays a comparable stream
    let hot = txns
        .iter()
        .max_by_key(|&(&t, &n)| (n, std::cmp::Reverse(t)))
        .map(|(&t, _)| t)
        .expect("at least one transaction");

    let plan = Plan {
        schema,
        triggers,
        dir,
        traced,
        snapshot_every: Some(0),
        lifecycle: LifecycleConfig::with_max_resident(shape.cap),
        mark: spans.mark(),
    };
    let mut out = Round::default();
    let mut replies = Replies::default();
    let (rt, setup_s) = timed_setup(dir, |d| plan.runtime(d))?;
    out.setup_s = setup_s;

    let rerr = |e: chimera_runtime::RuntimeError| format!("submit: {e}");
    let run_txn = |tenant: u64,
                   jobs: &[Job],
                   spans: &mut Spans,
                   replies: &mut Replies|
     -> Result<u64, String> {
        let mut rxs = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (_, rx) = spans
                .span("runtime", "submit", |_| {
                    rt.submit_with_reply(TenantId(tenant), job.clone())
                })
                .map_err(rerr)?;
            rxs.push(rx);
        }
        let mut events = 0;
        for rx in &rxs {
            events += replies.take(rx)?;
        }
        Ok(events)
    };
    timed_ingest(&mut out, || {
        let mut events = 0;
        for (tenant, jobs) in &ingest {
            events += run_txn(*tenant, jobs, spans, &mut replies)?;
        }
        Ok(events)
    })?;
    out.jobs += ingest.iter().map(|(_, j)| j.len() as u64).sum::<u64>();

    // a probe is the first job a cold tenant's claim runs: `Begin`, which
    // pays the rehydration; the rest of its transaction follows untimed
    let mut probe_events = 0;
    for (tenant, jobs) in &probes {
        let before = rt.stats().rehydrations;
        let started = Instant::now();
        probe_events += run_txn(*tenant, &jobs[..1], spans, &mut replies)?;
        out.probes_us.push(us_since(started));
        let after = rt.stats().rehydrations;
        if after != before + 1 {
            return Err(format!(
                "probe of tenant {tenant} caused {} rehydrations, not 1",
                after - before
            ));
        }
        probe_events += run_txn(*tenant, &jobs[1..], spans, &mut replies)?;
        out.jobs += jobs.len() as u64;
    }
    out.acked_events = out.ingest_events + probe_events;
    out.failed = replies.failed;
    rt.flush().map_err(rerr)?;

    let stats = rt.stats();
    let cap = shape.cap as u64;
    if stats.evictions < tenants.len() as u64 - cap {
        return Err(format!(
            "{} evictions for {} distinct tenants under a cap of {cap}",
            stats.evictions,
            tenants.len()
        ));
    }
    if stats.tenants_resident > cap {
        return Err(format!(
            "{} tenants resident over a cap of {cap}",
            stats.tenants_resident
        ));
    }
    let live = capture_checked(&rt, &tenants, &replies.events)?;
    let layers = plan.runtime_layers(&rt, out.acked_events);
    drop(rt);
    let job_streams = || ingest.iter().chain(&probes);
    let end = Ending {
        tenants: &tenants,
        live,
        jobs: Box::new(job_streams().flat_map(|(_, j)| j)),
        // its definition and its ingest transactions
        sample: Box::new(
            ingest
                .iter()
                .filter(move |(t, _)| *t == hot)
                .flat_map(|(_, j)| j),
        ),
        submit: ("submit", "runtime.submit_us"),
        frames: Box::new(std::iter::empty()),
        sources: Box::new(tenants.iter().map(|&t| tenant_source(t))),
    };
    plan.finish(&mut out, layers, end, spans)?;
    Ok(out)
}
