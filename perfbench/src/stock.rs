//! `stock_ingest`: the user's whole path over the wire.
//!
//! One pipelined `Client` sends the §3.2 stock domain (`stock_schema`,
//! `stock_triggers`: clamp, reorder, restockWatch) over loopback to a
//! `Server` on a durable one-worker runtime with default compaction.
//! Tenants run transactions of `ExecBlock` lines that create, modify and
//! delete `stock` and `show` objects. A round stays under the 1024
//! durable groups after which the runtime compacts, so what recovery
//! replays does not depend on how group commit happened to batch.

use crate::measure::{mix, us_since, Spans};
use crate::round::{capture_checked, timed_ingest, timed_setup, Ending, Plan, Round, Size};
use chimera_exec::{Engine, Op};
use chimera_lifecycle::LifecycleConfig;
use chimera_model::{Oid, Schema, Value};
use chimera_net::{Client, JobDone, Request, Server, ServerConfig, WireJob, WireOp, WireOutcome};
use chimera_runtime::{Job, Runtime, TenantId};
use chimera_workload::{stock_schema, stock_triggers};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

struct Shape {
    tenants: u64,
    txns: usize,
    blocks_per_txn: usize,
    ops_per_block: usize,
    probes_per_tenant: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            tenants: 8,
            txns: 4,
            blocks_per_txn: 24,
            ops_per_block: 16,
            probes_per_tenant: 12,
        },
        Size::Smoke => Shape {
            tenants: 2,
            txns: 2,
            blocks_per_txn: 4,
            ops_per_block: 8,
            probes_per_tenant: 4,
        },
    }
}

/// One tenant's generated jobs: the ingest transactions, then the probe
/// transaction's blocks.
struct TenantJobs {
    ingest: Vec<Job>,
    probes: Vec<Job>,
}

/// Draws a tenant's operations, running each block on a private engine
/// of the same domain so that later blocks name objects that exist:
/// object ids depend on the objects the rules create, too.
struct Gen {
    engine: Engine,
    rng: StdRng,
    stocks: Vec<Oid>,
    shows: Vec<Oid>,
}

impl Gen {
    fn new(schema: &Schema, seed: u64) -> Gen {
        let mut engine = Engine::new(schema.clone());
        for def in stock_triggers(schema) {
            engine
                .define_trigger(def)
                .expect("stock triggers are valid");
        }
        Gen {
            engine,
            rng: StdRng::seed_from_u64(seed),
            stocks: Vec::new(),
            shows: Vec::new(),
        }
    }

    fn op(&mut self) -> Op {
        let schema = self.engine.schema();
        let stock = schema.class_by_name("stock").expect("stock");
        let show = schema.class_by_name("show").expect("show");
        let q = schema.attr_by_name(stock, "quantity").expect("quantity");
        let shq = schema
            .attr_by_name(show, "quantity")
            .expect("show quantity");
        let pick = |rng: &mut StdRng, v: &[Oid]| v[rng.random_range(0..v.len())];
        match self.rng.random_range(0..20u32) {
            0..=5 => Op::Create {
                class: stock,
                inits: vec![(q, Value::Int(self.rng.random_range(0..200)))],
            },
            6..=7 => Op::Create {
                class: show,
                inits: vec![(shq, Value::Int(self.rng.random_range(0..50)))],
            },
            8..=13 if !self.stocks.is_empty() => Op::Modify {
                oid: pick(&mut self.rng, &self.stocks),
                attr: q,
                value: Value::Int(self.rng.random_range(0..200)),
            },
            14..=16 if !self.shows.is_empty() => Op::Modify {
                oid: pick(&mut self.rng, &self.shows),
                attr: shq,
                value: Value::Int(self.rng.random_range(0..50)),
            },
            17..=18 if self.stocks.len() > 4 => {
                let i = self.rng.random_range(0..self.stocks.len());
                Op::Delete {
                    oid: self.stocks.swap_remove(i),
                }
            }
            19 if self.shows.len() > 4 => {
                let i = self.rng.random_range(0..self.shows.len());
                Op::Delete {
                    oid: self.shows.swap_remove(i),
                }
            }
            _ => Op::Create {
                class: stock,
                inits: vec![(q, Value::Int(self.rng.random_range(0..200)))],
            },
        }
    }

    fn block(&mut self, n: usize) -> Job {
        let ops: Vec<Op> = (0..n).map(|_| self.op()).collect();
        let schema = self.engine.schema().clone();
        let stock = schema.class_by_name("stock").expect("stock");
        let show = schema.class_by_name("show").expect("show");
        let occs = self
            .engine
            .exec_block(&ops)
            .expect("generated blocks are valid");
        for o in occs {
            if o.ty == chimera_events::EventType::create(stock) {
                self.stocks.push(o.oid);
            } else if o.ty == chimera_events::EventType::create(show) {
                self.shows.push(o.oid);
            }
        }
        Job::ExecBlock(ops)
    }

    fn txn(&mut self, blocks: usize, ops: usize, out: &mut Vec<Job>) {
        self.engine.begin().expect("begin");
        out.push(Job::Begin);
        for _ in 0..blocks {
            out.push(self.block(ops));
        }
        self.engine.commit().expect("commit");
        out.push(Job::Commit);
    }
}

fn generate(shape: &Shape, schema: &Schema, seed: u64) -> BTreeMap<u64, TenantJobs> {
    (0..shape.tenants)
        .map(|t| {
            let mut g = Gen::new(schema, mix(seed, t));
            let mut ingest = Vec::new();
            for _ in 0..shape.txns {
                g.txn(shape.blocks_per_txn, shape.ops_per_block, &mut ingest);
            }
            let mut probes = Vec::new();
            g.txn(shape.probes_per_tenant, shape.ops_per_block, &mut probes);
            (t, TenantJobs { ingest, probes })
        })
        .collect()
}

fn to_wire(job: &Job) -> WireJob {
    let op = |op: &Op| match op {
        Op::Create { class, inits } => WireOp::Create {
            class: class.0,
            inits: inits.iter().map(|(a, v)| (a.0, v.clone())).collect(),
        },
        Op::Modify { oid, attr, value } => WireOp::Modify {
            oid: oid.0,
            attr: attr.0,
            value: value.clone(),
        },
        Op::Delete { oid } => WireOp::Delete { oid: oid.0 },
        other => unreachable!("the generator draws no {other:?}"),
    };
    match job {
        Job::Begin => WireJob::Begin,
        Job::Commit => WireJob::Commit,
        Job::ExecBlock(ops) => WireJob::ExecBlock(ops.iter().map(op).collect()),
        other => unreachable!("the generator draws no {other:?}"),
    }
}

/// Tally one completion: events per tenant, failures.
fn tally(done: &JobDone, events: &mut BTreeMap<u64, u64>, failed: &mut u64) -> u64 {
    match done.outcome {
        WireOutcome::Done { events: n, .. } => {
            *events.entry(done.tenant).or_default() += n;
            n
        }
        _ => {
            *failed += 1;
            0
        }
    }
}

/// The domain's invariants on every live object: the clamp rule keeps
/// each stock's quantity at or below its maximum, and the reorder rule
/// only orders a positive quantity. Returns the number of orders seen.
fn check_domain(schema: &Schema, rt: &Runtime, tenants: &[u64]) -> Result<u64, String> {
    let stock = schema.class_by_name("stock").map_err(|e| e.to_string())?;
    let order = schema
        .class_by_name("stockOrder")
        .map_err(|e| e.to_string())?;
    let mut orders = 0;
    for &t in tenants {
        let r = rt.with_tenant(TenantId(t), |e| -> Result<u64, String> {
            let int = |oid, attr| match e.read_attr(oid, attr) {
                Ok(Value::Int(v)) => Ok(v),
                other => Err(format!("tenant {t}: {attr} of {oid:?} is {other:?}")),
            };
            for oid in e.extent(stock) {
                let (q, max) = (int(oid, "quantity")?, int(oid, "max_quantity")?);
                if q > max {
                    return Err(format!("tenant {t}: stock {oid:?} holds {q} > max {max}"));
                }
            }
            let ext = e.extent(order);
            for &oid in &ext {
                let d = int(oid, "del_quantity")?;
                if d <= 0 {
                    return Err(format!("tenant {t}: stockOrder {oid:?} orders {d}"));
                }
            }
            Ok(ext.len() as u64)
        });
        orders += r.ok_or_else(|| format!("tenant {t} has no engine"))??;
    }
    Ok(orders)
}

pub fn round(
    size: Size,
    seed: u64,
    traced: bool,
    dir: &std::path::Path,
    spans: &mut Spans,
) -> Result<Round, String> {
    let shape = shape(size);
    let schema = stock_schema();
    let triggers = stock_triggers(&schema);
    let jobs = generate(&shape, &schema, seed);
    let tenants: Vec<u64> = jobs.keys().copied().collect();
    let per_tenant = shape.txns * (shape.blocks_per_txn + 2) + shape.probes_per_tenant + 2;
    assert!(
        per_tenant * tenants.len() < 1024,
        "a round must stay below the runtime's compaction threshold"
    );
    // ingest order: tenants interleaved job by job, so the worker always
    // finds several tenants ready
    let mut ingest: Vec<(u64, WireJob)> = Vec::new();
    let n = jobs[&0].ingest.len();
    for i in 0..n {
        for (&t, tj) in &jobs {
            ingest.push((t, to_wire(&tj.ingest[i])));
        }
    }
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
    let mut events: BTreeMap<u64, u64> = BTreeMap::new();

    // the client comes first in the tuple so that it drops first: a
    // server shutting down waits for its connections to close
    let ((mut client, server, rt), setup_s) = timed_setup(dir, |d| {
        let rt = Arc::new(plan.runtime(d)?);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok((client, server, rt))
    })?;
    out.setup_s = setup_s;

    let net = |e: chimera_net::NetError| format!("client: {e}");
    let mut failed = 0;
    timed_ingest(&mut out, || {
        let mut acked = 0;
        for (tenant, job) in &ingest {
            let done = spans.span("net", "client_submit", |_| {
                client.submit(*tenant, job.clone())
            });
            if let Some(d) = done.map_err(net)? {
                acked += tally(&d, &mut events, &mut failed);
            }
        }
        for d in client.drain().map_err(net)? {
            acked += tally(&d, &mut events, &mut failed);
        }
        Ok(acked)
    })?;
    out.failed = failed;
    out.jobs += ingest.len() as u64;

    // probes: one block at a time, each in the tenant's open transaction
    let mut probe_events = 0;
    for (&t, tj) in &jobs {
        let d = client.submit_wait(t, to_wire(&tj.probes[0])).map_err(net)?;
        probe_events += tally(&d, &mut events, &mut out.failed);
    }
    for k in 0..shape.probes_per_tenant {
        for (&t, tj) in &jobs {
            let job = to_wire(&tj.probes[1 + k]);
            let started = Instant::now();
            let d = spans
                .span("net", "probe", |_| client.submit_wait(t, job))
                .map_err(net)?;
            out.probes_us.push(us_since(started));
            probe_events += tally(&d, &mut events, &mut out.failed);
        }
    }
    for (&t, tj) in &jobs {
        let d = client
            .submit_wait(t, to_wire(tj.probes.last().expect("commit")))
            .map_err(net)?;
        probe_events += tally(&d, &mut events, &mut out.failed);
    }
    out.jobs += (tenants.len() * (shape.probes_per_tenant + 2)) as u64;
    out.acked_events = out.ingest_events + probe_events;
    client.flush().map_err(net)?;

    let live = capture_checked(&rt, &tenants, &events)?;
    let orders = check_domain(&plan.schema, &rt, &tenants)?;
    if size == Size::Full && orders == 0 {
        return Err("no stockOrder was created: the reorder rule went unexercised".into());
    }
    let layers = plan.runtime_layers(&rt, out.acked_events);
    drop(client);
    server.shutdown();
    drop(Arc::try_unwrap(rt).map_err(|_| "the server still holds the runtime".to_string())?);
    let end = Ending {
        tenants: &tenants,
        live,
        jobs: Box::new(
            jobs.values()
                .flat_map(|tj| tj.ingest.iter().chain(&tj.probes)),
        ),
        sample: Box::new(jobs[&0].ingest.iter().chain(&jobs[&0].probes)),
        submit: ("client_submit", "net.client_submit_us"),
        frames: Box::new(ingest.iter().map(|(tenant, job)| Request::SubmitBlock {
            tenant: *tenant,
            job: job.clone(),
        })),
        sources: Box::new(std::iter::empty()),
    };
    plan.finish(&mut out, layers, end, spans)?;
    Ok(out)
}
