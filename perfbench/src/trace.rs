//! The traced replay of each workload.
//!
//! Each replay calls the same public functions, in the same order, as
//! the production path it stands for, with a span around every call:
//! the batch boot of `mlpeer-serve` (`Snapshot::of_pipeline` unrolled
//! into its stages → `SnapshotStore` → `DurableStore::append_epoch` →
//! `api::route`), the `--data-dir` restart, and the live tick body of
//! `spawn_live_refresher`. Spans stay in memory and are written out
//! when the replay ends. A few probes run after the production
//! sequence (index build, uncached build, route timings); they sit
//! under their own `probe` root, outside coverage.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlpeer::connectivity::gather_connectivity;
use mlpeer::dict::dictionary_from_connectivity;
use mlpeer::index::LinkIndex;
use mlpeer::live::{decode_message, LinkDelta, LiveInferencer};
use mlpeer::passive::{harvest_passive_sharded, PassiveConfig, PassiveStats};
use mlpeer::pipeline::{run_active_stage, PipelinePrep, TeeSink};
use mlpeer::validate::cross::{
    derive_corpus, parse_corpus, score_links, CorpusConfig, ValidationReport,
};
use mlpeer::{MlpLinkSet, Observation};
use mlpeer_bench::Scale;
use mlpeer_bgp::{Asn, Prefix};
use mlpeer_data::churn::{event_messages, ChurnConfig, ChurnGen};
use mlpeer_data::collector::{build_passive, CollectorConfig};
use mlpeer_data::geo::GeoDb;
use mlpeer_data::irr::{build_irr, IrrConfig};
use mlpeer_data::lg::build_lg_roster;
use mlpeer_data::peeringdb::{PeeringDb, PeeringDbConfig};
use mlpeer_data::traceroute::build_traceroute;
use mlpeer_data::Sim;
use mlpeer_ixp::Ecosystem;
use mlpeer_serve::http::{Body, Request};
use mlpeer_serve::store::DEFAULT_CHANGE_CAPACITY;
use mlpeer_serve::{api, DurableStore, ServerStats, Snapshot, SnapshotParts, SnapshotStore};
use mlpeer_topo::infer::{infer_relationships, InferConfig};

use crate::load::{Mix, Planned, CLASSES};

/// Churn events per tick (`mlpeer-serve --churn-per-tick` default).
const EVENTS_PER_TICK: usize = 10;

/// One recorded call.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder: one span per call, with its parent.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counts recorded at the same boundaries as the spans.
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn dur(&self, i: usize) -> f64 {
        (self.spans[i].end - self.spans[i].start).as_secs_f64()
    }

    /// (calls, total seconds) of every span with this name.
    fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0.0), |(n, t), (i, _)| (n + 1, t + self.dur(i)))
    }

    /// Seconds covered by top-level spans that ended by `until`.
    fn top_level(&self, until: f64) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .filter(|&i| self.spans[i].end.as_secs_f64() <= until)
            .map(|i| self.dur(i))
            .sum()
    }

    /// Mean milliseconds per call (0 when the layer never ran).
    fn mean_ms(&self, name: &str) -> f64 {
        let (n, t) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t * 1e3 / n as f64
        }
    }

    /// Per span name: calls, total and self seconds (self = the span
    /// minus the time its children cover).
    fn table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.dur(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self.dur(i);
            e.2 += self.dur(i) - child[i];
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    fn dump(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            ));
        }
        out
    }
}

/// What one traced replay found.
pub struct TraceOutcome {
    /// ETag the replay's first served snapshot carries.
    pub etag: String,
    /// Epoch → ETag of every epoch the replay published.
    pub epochs: BTreeMap<u64, String>,
    /// Per-layer metrics, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Seconds from the replay's first span to the first 200.
    pub setup_s: f64,
    /// Seconds of `setup_s` that top-level production spans cover.
    pub setup_covered_s: f64,
}

/// Settings of one replay.
pub struct TraceConfig {
    /// `boot`, `query` or `live`.
    pub workload: String,
    /// Ecosystem seed (`mlpeer-serve --seed`).
    pub eco_seed: u64,
    /// Churn seed (`mlpeer-serve --churn-seed`).
    pub churn_seed: u64,
    /// The durable log directory (empty for boot and live; a copy of
    /// the served log for query).
    pub data_dir: String,
    /// The targets file the served run used.
    pub targets: String,
    /// Schedule seed for the route probes.
    pub seed: u64,
    /// How long the live replay ticks.
    pub seconds: f64,
    /// Where to write the spans.
    pub spans_out: String,
}

fn get(path: &str, inm: Option<&str>) -> Request {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let mut headers = Vec::new();
    if let Some(tag) = inm {
        headers.push(("if-none-match".to_string(), format!("\"{tag}\"")));
    }
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.into(),
        headers,
    }
}

/// `api::route` exactly as the reactor calls it, against `snap`.
fn route(
    store: &SnapshotStore,
    snap: &Arc<Snapshot>,
    stats: &ServerStats,
    req: &Request,
) -> mlpeer_serve::http::Response {
    api::route(
        req,
        snap,
        stats,
        store.changes(),
        store.durable(),
        store.live_stats(),
        None,
        store.dist_stats(),
        Some(store.health().as_ref()),
    )
}

/// `validate_harvest`, one span per stage.
fn validate(
    t: &mut Tracer,
    eco: &Ecosystem,
    links: &MlpLinkSet,
    observations: &[Observation],
    seed: u64,
) -> ValidationReport {
    t.span("core.validate", |t| {
        let text = t.span("core.validate.derive", |_| {
            derive_corpus(eco, &CorpusConfig::seeded(seed))
        });
        let corpus = t.span("core.validate.parse", |_| parse_corpus(&text));
        t.span("core.validate.score", |_| {
            let announcements = mlpeer::index::scan::announcements(links, observations);
            score_links(&corpus, links, &announcements).0
        })
    })
}

/// Run the replay for `cfg.workload`.
pub fn run(cfg: &TraceConfig) -> Result<TraceOutcome, String> {
    let mix = Mix::read(&cfg.targets).map_err(|e| format!("targets: {e}"))?;
    let mut t = Tracer::new();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut epochs = BTreeMap::new();
    let stats = ServerStats::default();
    if !matches!(cfg.workload.as_str(), "boot" | "query" | "live") {
        return Err(format!("unknown workload {}", cfg.workload));
    }

    // ---- The production sequence up to the first 200. Every stage is
    // a top-level span; time between them is unattributed. ----
    let (durable, recovered) = t.span("store.recover", |_| {
        let d = DurableStore::open(&cfg.data_dir).map_err(|e| e.to_string())?;
        let latest = d.latest();
        Ok::<_, String>((Arc::new(d), latest))
    })?;
    let eco = t.span("ixp.generate", |_| {
        Ecosystem::generate(Scale::Medium.config(cfg.eco_seed))
    });
    let mut inferencer = None;
    let (store, observations) = match cfg.workload.as_str() {
        "boot" => {
            let (snapshot, observations) = boot_pipeline(&mut t, &eco, cfg.eco_seed);
            let store = t.span("serve.publish", |_| {
                SnapshotStore::with_change_capacity(snapshot, DEFAULT_CHANGE_CAPACITY)
            });
            append(&mut t, &store, &durable, None)?;
            (store, Some(observations))
        }
        "query" => {
            let prev = recovered.ok_or("the data dir holds no epoch")?;
            let store = t.span("serve.resume", |_| {
                SnapshotStore::resume(prev, DEFAULT_CHANGE_CAPACITY)
            });
            t.span("store.attach", |_| {
                store.attach_durable(Arc::clone(&durable))
            })
            .map_err(|e| e.to_string())?;
            (store, None)
        }
        _ => {
            // `mlpeer_serve::bootstrap`, one span per stage.
            let li = t.span("core.live_bootstrap", |_| {
                LiveInferencer::from_ecosystem(&eco)
            });
            let observations = t.span("core.live_observations", |_| li.observations());
            let validation = validate(&mut t, &eco, li.current(), &observations, cfg.eco_seed);
            let snapshot = t.span("serve.snapshot_build", |_| {
                Snapshot::build_validated(
                    "medium",
                    cfg.eco_seed,
                    Snapshot::names_of(&eco),
                    li.current().clone(),
                    &observations,
                    PassiveStats::default(),
                    validation,
                )
            });
            let store = t.span("serve.publish", |_| {
                SnapshotStore::with_change_capacity(snapshot, DEFAULT_CHANGE_CAPACITY)
            });
            append(&mut t, &store, &durable, None)?;
            inferencer = Some(li);
            (store, Some(observations))
        }
    };
    let snap = store.load();
    let first = t.span("serve.route", |_| {
        route(&store, &snap, &stats, &get("/v1/ixps", None))
    });
    if first.status != 200 {
        return Err(format!("first /v1/ixps answered {}", first.status));
    }
    let setup_s = t.t0.elapsed().as_secs_f64();
    let setup_covered_s = t.top_level(setup_s);
    let etag = snap.etag.clone();
    epochs.insert(snap.epoch, etag.clone());

    // ---- Live ticks: the body of `spawn_live_refresher`. ----
    if let Some(mut inferencer) = inferencer {
        let mut eco = eco;
        let names = Snapshot::names_of(&eco);
        let mut churn = ChurnGen::new(
            &eco,
            ChurnConfig {
                seed: cfg.churn_seed,
                ..ChurnConfig::default()
            },
        );
        let mut clock = 0u64;
        let end = Instant::now() + Duration::from_secs_f64(cfg.seconds);
        while Instant::now() < end {
            t.span("live.idle", |_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            let published = t.span("live.tick", |t| -> Result<bool, String> {
                let version_before = inferencer.state_version();
                let mut delta = LinkDelta::default();
                for _ in 0..EVENTS_PER_TICK {
                    let (ixp, msgs) = t.span("data.churn", |_| {
                        let event = churn.next_event(&eco);
                        eco.apply_churn(&event);
                        let msgs = event_messages(&eco, &event, clock);
                        (event.ixp(), msgs)
                    });
                    t.span("core.live_apply", |_| {
                        let scheme = &eco.ixp(ixp).scheme;
                        for msg in &msgs {
                            for live_event in decode_message(ixp, scheme, msg) {
                                delta.merge(inferencer.apply(&live_event));
                            }
                        }
                    });
                    clock += 1;
                }
                t.add("live.events", EVENTS_PER_TICK as f64);
                t.add("live.ticks", 1.0);
                if delta.is_empty() && inferencer.state_version() == version_before {
                    return Ok(false);
                }
                t.add(
                    "live.links_moved",
                    (delta.added.len() + delta.removed.len()) as f64,
                );
                let observations = t.span("core.live_observations", |_| inferencer.observations());
                let validation =
                    validate(t, &eco, inferencer.current(), &observations, cfg.eco_seed);
                let snapshot = t.span("serve.snapshot_build_uncached", |_| {
                    Snapshot::build_uncached_validated(
                        "medium",
                        cfg.eco_seed,
                        names.clone(),
                        inferencer.current().clone(),
                        &observations,
                        PassiveStats::default(),
                        validation,
                    )
                });
                t.span("serve.publish", |_| {
                    store.publish_with_delta(snapshot, delta.clone())
                });
                append(t, &store, &durable, Some(&delta))?;
                Ok(true)
            })?;
            if published {
                t.add("live.published", 1.0);
                let s = store.load();
                epochs.insert(s.epoch, s.etag.clone());
            }
        }
    }
    let wall_s = t.t0.elapsed().as_secs_f64();
    let covered_s = t.top_level(wall_s);

    // ---- Probes, outside the production sequence. ----
    t.span("probe", |t| {
        probe_build(t, &snap, observations.as_deref(), &mut m);
        route_probe(t, &store, &snap, &stats, &mix, cfg.seed, "", &mut m);
        let tick = store.load();
        if tick.epoch != snap.epoch {
            route_probe(
                t,
                &store,
                &tick,
                &stats,
                &mix,
                cfg.seed,
                ".uncached",
                &mut m,
            );
        }
    });
    for class in CLASSES {
        m.entry(format!("serve.route_us.{class}.uncached"))
            .or_insert(0.0);
    }

    // ---- Per-layer metrics. ----
    for (metric, span) in [
        ("ixp.generate_ms", "ixp.generate"),
        ("data.sim_new_ms", "data.sim_new"),
        ("data.irr_ms", "data.irr"),
        ("data.lg_roster_ms", "data.lg_roster"),
        ("data.collectors_ms", "data.collectors"),
        ("data.traceroute_ms", "data.traceroute"),
        ("data.peeringdb_ms", "data.peeringdb"),
        ("data.geo_ms", "data.geo"),
        ("topo.relationships_ms", "topo.relationships"),
        ("core.connectivity_ms", "core.connectivity"),
        ("core.dict_ms", "core.dict"),
        ("core.passive_ms", "core.passive"),
        ("core.active_ms", "core.active"),
        ("core.finalize_ms", "core.finalize"),
        ("core.validate_ms", "core.validate"),
        ("core.validate.derive_ms", "core.validate.derive"),
        ("core.validate.parse_ms", "core.validate.parse"),
        ("core.validate.score_ms", "core.validate.score"),
        ("core.live_bootstrap_ms", "core.live_bootstrap"),
        ("core.live_observations_ms", "core.live_observations"),
        (
            "serve.snapshot_build_uncached_ms",
            "serve.snapshot_build_uncached",
        ),
        ("serve.publish_ms", "serve.publish"),
        ("store.append_ms", "store.append"),
        ("store.recover_ms", "store.recover"),
    ] {
        m.insert(metric.into(), t.mean_ms(span));
    }
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let events = count("live.events");
    m.insert(
        "data.churn_us_per_event".into(),
        ratio(t.total("data.churn").1 * 1e6, events),
    );
    m.insert(
        "core.live_apply_us_per_event".into(),
        ratio(t.total("core.live_apply").1 * 1e6, events),
    );
    m.insert(
        "core.live_publish_ratio".into(),
        ratio(count("live.published"), count("live.ticks")),
    );
    m.insert(
        "core.live_links_moved_per_event".into(),
        ratio(count("live.links_moved"), events),
    );
    m.insert(
        "store.append_bytes".into(),
        ratio(
            count("store.append_bytes"),
            t.total("store.append").0 as f64,
        ),
    );
    for name in [
        "core.active_queries",
        "core.active_yield",
        "core.passive_yield",
    ] {
        m.insert(name.into(), count(name));
    }
    m.insert("trace.coverage".into(), covered_s / wall_s);

    eprintln!("# traced {}: span, calls, total ms, self ms", cfg.workload);
    for (name, (n, total, own)) in &t.table() {
        eprintln!(
            "#   {name:<34} {n:>6} {:>10.2} {:>10.2}",
            total * 1e3,
            own * 1e3
        );
    }
    std::fs::write(&cfg.spans_out, t.dump()).map_err(|e| format!("spans: {e}"))?;
    Ok(TraceOutcome {
        etag,
        epochs,
        metrics: m,
        setup_s,
        setup_covered_s,
    })
}

/// `Snapshot::of_pipeline` unrolled: `prepare`, the passive and active
/// stages and the analysis extras of `run_pipeline_with`, then
/// `validate_harvest` and `Snapshot::build_validated`.
fn boot_pipeline(t: &mut Tracer, eco: &Ecosystem, seed: u64) -> (Snapshot, Vec<Observation>) {
    let (links, observations, passive_stats, rest) = t.span("pipeline", |t| {
        let sim = t.span("data.sim_new", |_| Sim::new(eco));
        let irr = t.span("data.irr", |_| {
            build_irr(
                eco,
                &IrrConfig {
                    seed: seed ^ 0x11,
                    ..IrrConfig::default()
                },
            )
        });
        let lgs = t.span("data.lg_roster", |_| {
            build_lg_roster(&sim, seed ^ 0x22, 70, 0.2)
        });
        let conn = t.span("core.connectivity", |_| {
            gather_connectivity(&sim, &lgs, &irr)
        });
        let dict = t.span("core.dict", |_| dictionary_from_connectivity(eco, &conn));
        let passive = t.span("data.collectors", |_| {
            build_passive(&sim, &CollectorConfig::paper_like(seed ^ 0x33))
        });
        let rels = t.span("topo.relationships", |_| {
            let public_paths: Vec<Vec<Asn>> = passive
                .collectors
                .iter()
                .flat_map(|(_, a)| a.rib.iter().map(|e| e.attrs.as_path.dedup_prepends()))
                .collect();
            infer_relationships(&public_paths, &InferConfig::default())
        });
        let prep = PipelinePrep {
            sim,
            irr,
            lgs,
            conn,
            dict,
            passive,
            rels,
        };
        let (mut sink, passive_stats) = t.span("core.passive", |_| {
            harvest_passive_sharded::<TeeSink>(
                &prep.passive,
                &prep.dict,
                &prep.conn,
                &prep.rels,
                &PassiveConfig::default(),
            )
        });
        let active = t.span("core.active", |_| run_active_stage(eco, &prep, &mut sink));
        let (observations, inferencer) = sink;
        let links = t.span("core.finalize", |_| inferencer.finalize(&prep.conn));
        let traceroute = t.span("data.traceroute", |_| {
            build_traceroute(&prep.sim, seed ^ 0x44, 60)
        });
        let pdb = t.span("data.peeringdb", |_| {
            PeeringDb::build(
                eco,
                &PeeringDbConfig {
                    seed: seed ^ 0x55,
                    ..Default::default()
                },
            )
        });
        let geo = t.span("data.geo", |_| GeoDb::build(eco));

        let queries: usize = active.iter().map(|(_, s)| s.cost()).sum();
        let covered: usize = active.iter().map(|(_, s)| s.members_covered).sum();
        t.add("core.active_queries", queries as f64);
        t.add("core.active_yield", covered as f64 / queries.max(1) as f64);
        t.add(
            "core.passive_yield",
            passive_stats.observations as f64 / passive_stats.routes_seen.max(1) as f64,
        );
        (
            links,
            observations,
            passive_stats,
            (prep, traceroute, pdb, geo),
        )
    });
    let validation = validate(t, eco, &links, &observations, seed);
    let snapshot = t.span("serve.snapshot_build", |_| {
        Snapshot::build_validated(
            "medium",
            seed,
            Snapshot::names_of(eco),
            links,
            &observations,
            passive_stats,
            validation,
        )
    });
    // `of_pipeline` drops the pipeline's substrates on return.
    t.span("pipeline.drop", |_| drop(rest));
    (snapshot, observations)
}

/// `DurableStore::append_epoch` for the store's current epoch.
fn append(
    t: &mut Tracer,
    store: &SnapshotStore,
    durable: &Arc<DurableStore>,
    delta: Option<&LinkDelta>,
) -> Result<(), String> {
    let before = durable.stats().bytes;
    t.span("store.append", |_| {
        durable.append_epoch(&store.load(), delta)
    })
    .map_err(|e| e.to_string())?;
    t.add(
        "store.append_bytes",
        (durable.stats().bytes - before) as f64,
    );
    Ok(())
}

/// What building the served snapshot cost, split into the index, the
/// body pre-render and the rest. Boot and live built it with
/// `Snapshot::build_validated` from `observations`; the probe repeats
/// the build without the pre-render. A restart rebuilt it inside
/// `DurableStore::latest` through `Snapshot::from_parts`, which the
/// probe repeats; there the remainder also holds the ETag hash.
fn probe_build(
    t: &mut Tracer,
    snap: &Snapshot,
    observations: Option<&[Observation]>,
    m: &mut BTreeMap<String, f64>,
) {
    let full = match observations {
        Some(observations) => {
            drop(t.span("core.index_build", |_| {
                LinkIndex::build(&snap.links, observations)
            }));
            let bare = t.span("probe.snapshot_build_uncached", |_| {
                Snapshot::build_uncached_validated(
                    &snap.scale,
                    snap.seed,
                    snap.names.clone(),
                    snap.links.clone(),
                    observations,
                    snap.passive_stats.clone(),
                    snap.validation.clone(),
                )
            });
            drop(bare);
            let full = t.mean_ms("serve.snapshot_build");
            m.insert(
                "serve.cache_render_ms".into(),
                full - t.mean_ms("probe.snapshot_build_uncached"),
            );
            full
        }
        None => {
            let announcements = snap.index.announcements();
            drop(t.span("core.index_build", |_| {
                LinkIndex::build_from_announcements(&snap.links, announcements.iter().copied())
            }));
            let parts = SnapshotParts {
                epoch: snap.epoch,
                scale: snap.scale.clone(),
                seed: snap.seed,
                names: snap.names.clone(),
                links: snap.links.clone(),
                announcements,
                observation_count: snap.observation_count,
                passive_stats: snap.passive_stats.clone(),
                validation: snap.validation.clone(),
            };
            drop(t.span("probe.from_parts", |_| Snapshot::from_parts(parts)));
            let full = t.mean_ms("probe.from_parts");
            m.insert(
                "serve.cache_render_ms".into(),
                full - t.mean_ms("core.index_build"),
            );
            full
        }
    };
    m.insert("serve.snapshot_build_ms".into(), full);
    m.insert("core.index_build_ms".into(), t.mean_ms("core.index_build"));
}

/// Time `api::route` for each request class on its own, with no
/// network, plus the index's aggregate prefix lookup alone.
#[allow(clippy::too_many_arguments)]
fn route_probe(
    t: &mut Tracer,
    store: &SnapshotStore,
    snap: &Arc<Snapshot>,
    stats: &ServerStats,
    mix: &Mix,
    seed: u64,
    suffix: &str,
    m: &mut BTreeMap<String, f64>,
) {
    // Each class timed on its own (the mix draws some classes rarely),
    // then the mix as served, for the share of cache hits.
    let mut per_class = vec![(0u32, 0.0f64); CLASSES.len()];
    let (mut hits, mut oks) = (0u32, 0u32);
    let by_class: Vec<Planned> = (0..CLASSES.len())
        .flat_map(|class| mix.of_class(class, seed, 200))
        .collect();
    t.span("probe.route", |_| {
        for (timed, plan) in [(true, by_class), (false, mix.schedule(seed, 2000))] {
            for p in &plan {
                let inm = p.inm.map(|stale| {
                    if stale {
                        "0000000000000000"
                    } else {
                        snap.etag.as_str()
                    }
                });
                let req = get(&p.target.path, inm);
                let start = Instant::now();
                let resp = route(store, snap, stats, &req);
                if timed {
                    per_class[p.class].0 += 1;
                    per_class[p.class].1 += start.elapsed().as_secs_f64() * 1e6;
                } else if resp.status == 200 {
                    oks += 1;
                    if matches!(resp.body, Body::Shared(_)) {
                        hits += 1;
                    }
                }
            }
        }
    });
    for (i, class) in CLASSES.iter().enumerate() {
        let (n, total) = per_class[i];
        let mean = if n == 0 { 0.0 } else { total / f64::from(n) };
        m.insert(format!("serve.route_us.{class}{suffix}"), mean);
    }
    // On `live` the tick snapshot's probe runs last: its reads are the
    // ones the served reads hit.
    m.insert(
        "serve.cache_hit_ratio".into(),
        f64::from(hits) / f64::from(oks.max(1)),
    );
    if suffix.is_empty() {
        let aggs: Vec<Prefix> = mix
            .targets(2)
            .iter()
            .filter_map(|t| t.path.strip_prefix("/v1/prefix/")?.parse().ok())
            .collect();
        let start = Instant::now();
        let found: usize = t.span("core.index_prefix", |_| {
            aggs.iter()
                .map(|p| snap.index.prefix_matches(p).total())
                .sum()
        });
        std::hint::black_box(found);
        m.insert(
            "core.index_prefix_us".into(),
            start.elapsed().as_secs_f64() * 1e6 / aggs.len().max(1) as f64,
        );
    }
}
