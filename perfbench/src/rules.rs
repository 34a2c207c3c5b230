//! `rule_heavy`: the trigger check round dominates.
//!
//! A few tenants run ~400 conjunction and precedence rules over 16
//! external channels; every job is a 16-event block in which half the
//! events fall on a rule channel. Jobs are submitted in process through
//! `Runtime::submit_with_reply`, 32 in flight, to one worker. The runtime
//! is durable (so recovery replays this rule work, and the durable
//! end-to-end metrics exist here too), but the net layer is idle and the
//! lifecycle layer unbounded: a change to them must read flat here.
//!
//! Each round checks a sample tenant's per-job consideration counts
//! against a model built on `NaiveTriggerChecker`, which probes every
//! rule at every instant of its window with no §5.1 filter, no memo and
//! no compiled plans.

use crate::measure::{mix, us_since, Spans};
use crate::round::{capture_checked, timed_ingest, timed_setup, Ending, Plan, Round, Size};
use chimera_baselines::NaiveTriggerChecker;
use chimera_calculus::EventExpr;
use chimera_events::{EventId, EventOccurrence, EventType, Timestamp};
use chimera_lifecycle::LifecycleConfig;
use chimera_model::{AttrDef, AttrType, ClassId, Oid, Schema, SchemaBuilder};
use chimera_rules::TriggerDef;
use chimera_runtime::{Job, JobOutcome, JobReply, Runtime, TenantId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::time::Instant;

/// Submissions in flight at once, as a pipelined network client keeps.
pub const WINDOW: usize = 32;
const CHANNELS: u32 = 16;
const RULE_BASE: u32 = 1000;

struct Shape {
    tenants: u64,
    rules: usize,
    txns: usize,
    blocks_per_txn: usize,
    events_per_block: usize,
    probes_per_tenant: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            tenants: 4,
            rules: 400,
            txns: 4,
            blocks_per_txn: 8,
            events_per_block: 16,
            probes_per_tenant: 16,
        },
        Size::Smoke => Shape {
            tenants: 2,
            rules: 40,
            txns: 2,
            blocks_per_txn: 4,
            events_per_block: 16,
            probes_per_tenant: 4,
        },
    }
}

pub fn item_schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class("item", None, vec![AttrDef::new("qty", AttrType::Integer)])
        .expect("item schema");
    b.build()
}

/// `n` rules: even ones a set conjunction, odd ones a precedence, over
/// channel pairs that cycle through every offset, so some rules share
/// an expression and most do not.
fn rule_set(schema: &Schema, n: usize) -> Vec<TriggerDef> {
    let item = schema.class_by_name("item").expect("item");
    let p = |c: u32| EventExpr::prim(EventType::external(item, RULE_BASE + c));
    (0..n)
        .map(|i| {
            let a = i as u32 % CHANNELS;
            let b = (a + 1 + (i as u32 / CHANNELS) % (CHANNELS - 1)) % CHANNELS;
            let expr = if i % 2 == 0 {
                p(a).and(p(b))
            } else {
                p(a).prec(p(b))
            };
            TriggerDef::new(format!("r{i}"), expr)
        })
        .collect()
}

/// One block: half the events on distinct rule channels, half on
/// unwatched ones, in shuffled order. Drawing the rule channels without
/// replacement keeps the number of rules a block triggers close to the
/// same from block to block, so a round's work depends little on its
/// seed.
fn block(item: ClassId, seed: u64, n: usize) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channels: Vec<u32> = (0..CHANNELS).collect();
    let mut evs: Vec<(ClassId, u32, Oid)> = (0..n)
        .map(|i| {
            let ch = if i % 2 == 0 {
                // a partial Fisher-Yates draw over the rule channels
                let j = i / 2 % CHANNELS as usize;
                let k = rng.random_range(j..CHANNELS as usize);
                channels.swap(j, k);
                RULE_BASE + channels[j]
            } else {
                rng.random_range(0..CHANNELS)
            };
            (item, ch, Oid(rng.random_range(1..33)))
        })
        .collect();
    for i in (1..evs.len()).rev() {
        let j = rng.random_range(0..=i);
        evs.swap(i, j);
    }
    Job::RaiseExternal(evs)
}

/// Per-job consideration counts of one tenant's job stream under the
/// naive checker: at `Begin` every rule starts afresh at the current
/// instant; after each block every triggered rule is considered once at
/// the block's last instant (the rules have no actions, so nothing
/// re-triggers).
fn naive_considerations(exprs: &[EventExpr], jobs: &[Job]) -> Vec<u64> {
    let mut now = 0u64;
    let mut checker: Option<NaiveTriggerChecker> = None;
    let mut txn: Vec<EventOccurrence> = Vec::new();
    jobs.iter()
        .map(|job| match job {
            Job::Begin => {
                checker = Some(NaiveTriggerChecker::new(exprs.to_vec(), Timestamp(now)));
                txn.clear();
                0
            }
            Job::RaiseExternal(evs) => {
                for &(class, channel, oid) in evs {
                    now += 1;
                    txn.push(EventOccurrence {
                        eid: EventId(now),
                        ty: EventType::external(class, channel),
                        oid,
                        ts: Timestamp(now),
                    });
                }
                let c = checker.as_mut().expect("blocks run inside a transaction");
                let fired = c.check(&txn, Timestamp(now));
                for &i in &fired {
                    c.consider(i, Timestamp(now));
                }
                fired.len() as u64
            }
            _ => 0,
        })
        .collect()
}

/// Reply bookkeeping shared by the ingest and probe phases.
#[derive(Default)]
pub struct Replies {
    pub events: BTreeMap<u64, u64>,
    pub considerations: BTreeMap<u64, Vec<u64>>,
    pub failed: u64,
}

impl Replies {
    pub fn take(&mut self, rx: &Receiver<JobReply>) -> Result<u64, String> {
        let reply = rx
            .recv()
            .map_err(|_| "a reply slot closed unanswered".to_string())?;
        let per_job = self.considerations.entry(reply.tenant.0).or_default();
        match reply.outcome {
            JobOutcome::Done(s) => {
                *self.events.entry(reply.tenant.0).or_default() += s.events;
                per_job.push(s.considerations);
                Ok(s.events)
            }
            _ => {
                per_job.push(u64::MAX);
                self.failed += 1;
                Ok(0)
            }
        }
    }
}

/// Submit `jobs` in order with [`WINDOW`] of them in flight, waiting on
/// the oldest reply whenever the window is full. Returns the events the
/// replies acknowledged.
pub fn pipeline(
    rt: &Runtime,
    jobs: &[(u64, Job)],
    spans: &mut Spans,
    replies: &mut Replies,
) -> Result<u64, String> {
    let mut events = 0;
    let mut inflight: VecDeque<Receiver<JobReply>> = VecDeque::with_capacity(WINDOW);
    for (tenant, job) in jobs {
        if inflight.len() >= WINDOW {
            let rx = inflight.pop_front().expect("the window is full");
            events += replies.take(&rx)?;
        }
        let (_, rx) = spans
            .span("runtime", "submit", |_| {
                rt.submit_with_reply(TenantId(*tenant), job.clone())
            })
            .map_err(|e| format!("submit: {e}"))?;
        inflight.push_back(rx);
    }
    while let Some(rx) = inflight.pop_front() {
        events += replies.take(&rx)?;
    }
    Ok(events)
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
    let item = schema.class_by_name("item").expect("item");
    let triggers = rule_set(&schema, shape.rules);
    // per tenant: the ingest transactions, then one probe transaction
    let mut jobs: BTreeMap<u64, (Vec<Job>, Vec<Job>)> = BTreeMap::new();
    for t in 0..shape.tenants {
        let s = mix(seed, t);
        let mut b = 0u64;
        let mut txn = |blocks: usize| {
            let mut v = vec![Job::Begin];
            for _ in 0..blocks {
                v.push(block(item, mix(s, b), shape.events_per_block));
                b += 1;
            }
            v.push(Job::Commit);
            v
        };
        let ingest: Vec<Job> = (0..shape.txns)
            .flat_map(|_| txn(shape.blocks_per_txn))
            .collect();
        let probes = txn(shape.probes_per_tenant);
        jobs.insert(t, (ingest, probes));
    }
    let tenants: Vec<u64> = jobs.keys().copied().collect();
    let total_jobs: usize = jobs.values().map(|(a, b)| a.len() + b.len()).sum();
    assert!(
        total_jobs < 1024,
        "a round must stay below the runtime's compaction threshold"
    );
    let n = jobs[&0].0.len();
    let ingest: Vec<(u64, Job)> = (0..n)
        .flat_map(|i| jobs.iter().map(move |(&t, (a, _))| (t, a[i].clone())))
        .collect();

    let plan = Plan {
        schema,
        triggers,
        dir,
        traced,
        snapshot_every: None,
        lifecycle: LifecycleConfig::unbounded(),
        mark: spans.mark(),
    };
    let mut out = Round::default();
    let mut replies = Replies::default();
    let (rt, setup_s) = timed_setup(dir, |d| plan.runtime(d))?;
    out.setup_s = setup_s;

    let rerr = |e: chimera_runtime::RuntimeError| format!("submit: {e}");
    timed_ingest(&mut out, || pipeline(&rt, &ingest, spans, &mut replies))?;
    out.jobs += ingest.len() as u64;

    let mut probe_events = 0;
    let mut wait = |tenant: u64, job: Job, spans: &mut Spans| -> Result<u64, String> {
        let (_, rx) = spans
            .span("runtime", "submit", |_| {
                rt.submit_with_reply(TenantId(tenant), job)
            })
            .map_err(rerr)?;
        replies.take(&rx)
    };
    for (&t, (_, p)) in &jobs {
        probe_events += wait(t, p[0].clone(), spans)?;
    }
    for k in 0..shape.probes_per_tenant {
        for (&t, (_, p)) in &jobs {
            let started = Instant::now();
            probe_events += wait(t, p[1 + k].clone(), spans)?;
            out.probes_us.push(us_since(started));
        }
    }
    for (&t, (_, p)) in &jobs {
        probe_events += wait(t, p.last().expect("commit").clone(), spans)?;
    }
    out.jobs += jobs.values().map(|(_, p)| p.len() as u64).sum::<u64>();
    out.acked_events = out.ingest_events + probe_events;
    out.failed = replies.failed;
    rt.flush().map_err(rerr)?;

    let live = capture_checked(&rt, &tenants, &replies.events)?;
    // the model is slow by design: one sample tenant per round
    let sample = tenants[(seed % tenants.len() as u64) as usize];
    let (a, b) = &jobs[&sample];
    let stream: Vec<Job> = a.iter().chain(b).cloned().collect();
    let exprs: Vec<EventExpr> = plan.triggers.iter().map(|d| d.events.clone()).collect();
    let model = naive_considerations(&exprs, &stream);
    if replies.considerations.get(&sample) != Some(&model) {
        return Err(format!(
            "tenant {sample}: considerations per job differ from the naive model \
             (runtime total {}, model total {})",
            replies
                .considerations
                .get(&sample)
                .map_or(0, |v| v.iter().sum::<u64>()),
            model.iter().sum::<u64>()
        ));
    }

    let layers = plan.runtime_layers(&rt, out.acked_events);
    drop(rt);
    let end = Ending {
        tenants: &tenants,
        live,
        jobs: Box::new(jobs.values().flat_map(|(a, b)| a.iter().chain(b))),
        sample: Box::new(stream.iter()),
        submit: ("submit", "runtime.submit_us"),
        frames: Box::new(std::iter::empty()),
        sources: Box::new(std::iter::empty()),
    };
    plan.finish(&mut out, layers, end, spans)?;
    Ok(out)
}
