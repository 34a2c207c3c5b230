//! What one round produces, the metric map the run prints, and the
//! parts of a round every workload shares: the runtime's configuration,
//! the timed set-up and ingest phases, and the checks, restart and
//! per-layer figures every round ends with.

use crate::layers::{self, Layers};
use crate::measure::{dir_bytes, process_cpu_s, Spans};
use chimera_exec::Engine;
use chimera_lifecycle::LifecycleConfig;
use chimera_model::ClassId;
use chimera_model::Schema;
use chimera_net::Request;
use chimera_rules::TriggerDef;
use chimera_runtime::{DurabilityConfig, Job, RecoveryReport, Runtime, RuntimeConfig, StorageMode};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Full size for measurement, or the smoke size the benchmark's own test
/// runs: every check on, a second or two per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One round's raw measurements.
#[derive(Debug, Default)]
pub struct Round {
    /// Building the runtime, opening its store, binding, connecting and
    /// installing triggers.
    pub setup_s: f64,
    /// Events acknowledged during the timed ingest phase.
    pub ingest_events: u64,
    /// Wall time of the ingest phase.
    pub ingest_s: f64,
    /// Process CPU time over the ingest phase.
    pub cpu_s: f64,
    /// Round trips of the single-job probes after the ingest phase.
    pub probes_us: Vec<f64>,
    /// Every acknowledged event of the round, probes included.
    pub acked_events: u64,
    /// Time for `Runtime::recover` on the directory the round left.
    pub recover_s: f64,
    /// Bytes in the durable directory at the end of the round.
    pub store_bytes: u64,
    /// Jobs submitted, and jobs that did not end `Done`.
    pub jobs: u64,
    pub failed: u64,
    /// Per-layer values (traced rounds only).
    pub layers: BTreeMap<String, f64>,
}

/// Metric name → (value, unit), in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, (f64, String))>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(Vec::new())
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), (value, unit.to_string())));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, String))> {
        self.0.iter().map(|(n, v)| (n, v))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            // JSON has no NaN or infinity; a metric that could not be
            // computed is printed as null
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A tenant's observable state: Event Base length plus every live
/// object of every class with its attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantState {
    pub eb_len: u64,
    pub objects: Vec<String>,
}

pub fn tenant_state(engine: &Engine) -> TenantState {
    let schema = engine.schema().clone();
    let mut objects = Vec::new();
    for c in 0..schema.class_count() {
        let class = ClassId(c as u32);
        for oid in engine.extent(class) {
            if let Ok(obj) = engine.get_object(oid) {
                // deep extents list subclass objects under each ancestor;
                // keep each object once, under its own class
                if obj.class == class {
                    objects.push(format!("{:?}", obj));
                }
            }
        }
    }
    TenantState {
        eb_len: engine.event_base().len() as u64,
        objects,
    }
}

/// Capture the state of every listed tenant (flush first).
fn capture(rt: &Runtime, tenants: &[u64]) -> Result<Vec<TenantState>, String> {
    tenants
        .iter()
        .map(|&t| {
            rt.with_tenant(chimera_runtime::TenantId(t), |e| tenant_state(e))
                .ok_or_else(|| format!("tenant {t} has no engine"))
        })
        .collect()
}

/// Capture the state of every listed tenant (flush first) and check
/// that each tenant's Event Base holds exactly the events its replies
/// reported.
pub fn capture_checked(
    rt: &Runtime,
    tenants: &[u64],
    reply_events: &BTreeMap<u64, u64>,
) -> Result<Vec<TenantState>, String> {
    let states = capture(rt, tenants)?;
    for (t, s) in tenants.iter().zip(&states) {
        let reported = reply_events.get(t).copied().unwrap_or(0);
        if s.eb_len != reported {
            return Err(format!(
                "tenant {t}: Event Base holds {} events but its replies reported {reported}",
                s.eb_len
            ));
        }
    }
    Ok(states)
}

/// Restart a runtime from the durable directory the round left, time
/// `Runtime::recover`, and check that every tenant came back exactly as
/// it was. Returns the recovery time and report.
fn restart_and_compare(
    schema: &Schema,
    triggers: &[TriggerDef],
    config: RuntimeConfig,
    tenants: &[u64],
    live: &[TenantState],
    spans: &mut Spans,
) -> Result<(f64, RecoveryReport), String> {
    let t = Instant::now();
    let (rt, report) = spans
        .span("runtime", "recover", |_| {
            Runtime::recover(schema.clone(), triggers.to_vec(), config)
        })
        .map_err(|e| format!("recover: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    if !report.torn_tails.is_empty() {
        return Err(format!(
            "clean shutdown left torn tails: {:?}",
            report.torn_tails
        ));
    }
    let recovered = capture(&rt, tenants)?;
    for ((t, a), b) in tenants.iter().zip(live).zip(&recovered) {
        if a != b {
            return Err(format!(
                "tenant {t} differs after recovery: Event Base {} vs {}, {} vs {} objects",
                a.eb_len,
                b.eb_len,
                a.objects.len(),
                b.objects.len()
            ));
        }
    }
    drop(rt);
    Ok((recover_s, report))
}

/// Set-ups per round. The round's set-up time is their median; all but
/// the last instance are dropped at once, each in a spare directory
/// beside the round's.
pub const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times, each on a fresh directory, and keep the
/// instance built on `dir`, with the median set-up time.
pub fn timed_setup<T>(
    dir: &Path,
    mut setup: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 1..SETUPS {
        let spare = dir.with_extension(format!("spare{i}"));
        fresh_dir(&spare)?;
        let t = Instant::now();
        let built = setup(&spare)?;
        times.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    fresh_dir(dir)?;
    let t = Instant::now();
    let built = setup(dir)?;
    times.push(t.elapsed().as_secs_f64());
    Ok((built, crate::measure::median(&times)))
}

/// Make a round's directory; the run's directory starts out empty, so it
/// is new.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// A workload's domain and the ways its runtime differs from the shared
/// one: every workload runs one worker shard, durable on the round's
/// directory, with telemetry on in traced rounds.
pub struct Plan<'a> {
    pub schema: Schema,
    pub triggers: Vec<TriggerDef>,
    /// The round's durable directory.
    pub dir: &'a Path,
    pub traced: bool,
    /// Full-snapshot period in durable groups; `None` keeps the
    /// runtime's default, `Some(0)` turns compaction off.
    pub snapshot_every: Option<u64>,
    pub lifecycle: LifecycleConfig,
    /// The first span of the round.
    pub mark: usize,
}

impl Plan<'_> {
    pub fn config(&self, dir: &Path) -> RuntimeConfig {
        let mut durability = DurabilityConfig::new(dir);
        if let Some(every) = self.snapshot_every {
            durability.snapshot_every = every;
        }
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(durability),
            telemetry: self.traced,
            lifecycle: self.lifecycle,
            ..RuntimeConfig::default()
        }
    }

    /// A fresh runtime of the plan on `dir`.
    pub fn runtime(&self, dir: &Path) -> Result<Runtime, String> {
        Runtime::new(self.schema.clone(), self.triggers.clone(), self.config(dir))
            .map_err(|e| format!("runtime: {e}"))
    }

    /// The runtime's counters and stage histograms, read before it shuts
    /// down (traced rounds only).
    pub fn runtime_layers(&self, rt: &Runtime, acked_events: u64) -> Layers {
        let mut layers = Layers::new();
        if self.traced {
            layers::runtime_layers(
                &rt.stats(),
                &rt.telemetry().snapshot(),
                acked_events,
                &mut layers,
            );
        }
        layers
    }

    /// The end of every round, once the workload has checked its outputs
    /// and shut its runtime down: measure the durable directory, restart
    /// from it and compare, and in traced rounds compute the per-layer
    /// figures.
    pub fn finish(
        &self,
        out: &mut Round,
        mut layers: Layers,
        end: Ending<'_>,
        spans: &mut Spans,
    ) -> Result<(), String> {
        out.store_bytes = dir_bytes(self.dir);
        if self.traced {
            layers::store_layers(self.dir, out.acked_events, spans, &mut layers)?;
        }
        let (recover_s, report) = restart_and_compare(
            &self.schema,
            &self.triggers,
            self.config(self.dir),
            end.tenants,
            &end.live,
            spans,
        )?;
        out.recover_s = recover_s;
        if self.traced {
            layers.insert("persist.jobs_replayed".into(), report.jobs_replayed as f64);
            let frames: Vec<Request> = end.frames.collect();
            if !frames.is_empty() {
                layers::request_layers(&frames, out.ingest_events, spans, &mut layers)?;
            }
            let jobs: Vec<Job> = end.jobs.cloned().collect();
            layers::jobrecord_layers(&jobs, spans, &mut layers)?;
            let sample: Vec<Job> = end.sample.cloned().collect();
            let engine = self.config(self.dir).engine;
            layers::replay_layers(
                &self.schema,
                &self.triggers,
                &engine,
                &sample,
                spans,
                &mut layers,
            )?;
            let sources: Vec<String> = end.sources.collect();
            if !sources.is_empty() {
                layers::parse_layers(&self.schema, &sources, spans, &mut layers)?;
            }
            let (span, metric) = end.submit;
            let (calls, ns) = spans.named_since(self.mark, span);
            layers.insert(metric.into(), ns as f64 / 1e3 / calls.max(1) as f64);
            layers::span_layers(spans, self.mark, &mut layers);
        }
        out.layers = layers;
        Ok(())
    }
}

/// What the end of a round takes from the workload. The job streams,
/// frames and sources are lazy: untraced rounds never walk them.
pub struct Ending<'a> {
    pub tenants: &'a [u64],
    /// Every tenant's state before the restart.
    pub live: Vec<TenantState>,
    /// Every job of the round, for the `JobRecord` codec timings.
    pub jobs: Box<dyn Iterator<Item = &'a Job> + 'a>,
    /// One tenant's job stream, replayed on a private engine.
    pub sample: Box<dyn Iterator<Item = &'a Job> + 'a>,
    /// The span whose mean duration is the submit time, and the metric
    /// that time goes to.
    pub submit: (&'static str, &'static str),
    /// The round's request frames, for the wire codec timings.
    pub frames: Box<dyn Iterator<Item = Request> + 'a>,
    /// The trigger source the tenants installed, for the parse timings.
    pub sources: Box<dyn Iterator<Item = String> + 'a>,
}

/// Run the timed ingest phase and record its acknowledged events, wall
/// time and the process's CPU time over it.
pub fn timed_ingest(
    out: &mut Round,
    ingest: impl FnOnce() -> Result<u64, String>,
) -> Result<(), String> {
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    out.ingest_events = ingest()?;
    out.ingest_s = t.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    Ok(())
}
