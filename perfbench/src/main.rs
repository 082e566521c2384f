//! `perfbench`: the helper binary `perfbench/run.py` drives.
//!
//! ```text
//! perfbench load  --addr=A --targets=F --rate=R --seconds=S --conns=C --seed=N
//!                 --etag=E [--windows=N] [--live] [--sse]
//! perfbench ladder --addr=A --targets=F --conns=C --seed=N --etag=E
//!                 --start-rung=K --step-s=S --limit-us=L [--live]
//! perfbench sse   --addr=A --seconds=S
//! perfbench trace --workload=W --eco-seed=N --churn-seed=N --data-dir=D
//!                 --targets=F --seed=N --seconds=S --spans=F
//! perfbench truth --eco-seed=N --links=F
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

mod load;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let opts: BTreeMap<String, String> = args
        .map(|a| {
            let a = a.trim_start_matches("--");
            match a.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (a.to_string(), String::new()),
            }
        })
        .collect();
    let out = match cmd.as_str() {
        "load" => cmd_load(&opts, false),
        "ladder" => cmd_load(&opts, true),
        "sse" => cmd_sse(&opts),
        "trace" => cmd_trace(&opts),
        "truth" => cmd_truth(&opts),
        _ => Err(format!("unknown subcommand `{cmd}`")),
    };
    match out {
        Ok(v) => println!("{}", serde_json::to_string(&v).expect("json")),
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            std::process::exit(1);
        }
    }
}

fn opt<T: std::str::FromStr>(opts: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    opts.get(key)
        .ok_or(format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("bad --{key}"))
}

fn set(obj: &mut Value, key: &str, value: Value) {
    if let Value::Object(map) = obj {
        map.insert(key.to_string(), value);
    }
}

/// A JSON object from (key, value) pairs.
fn obj<K: ToString, V: Into<Value>>(pairs: impl IntoIterator<Item = (K, V)>) -> Value {
    let mut map = serde_json::Map::new();
    for (k, v) in pairs {
        map.insert(k.to_string(), v.into());
    }
    Value::Object(map)
}

fn report_json(r: &load::LoadReport) -> Value {
    let mut service = serde_json::Map::new();
    let mut count = serde_json::Map::new();
    for (i, class) in load::CLASSES.iter().enumerate() {
        let (n, total) = r.service_us[i];
        count.insert(class.to_string(), json!(n));
        service.insert(
            class.to_string(),
            json!(if n == 0 { 0.0 } else { total / n as f64 }),
        );
    }
    let violations = obj(r.violations.iter().map(|(k, (n, ex))| (k, json!([n, ex]))));
    json!({
        "attempted": r.attempted,
        "failed": r.failed,
        "fail_reasons": obj(r.fail_reasons.iter().map(|(k, n)| (k, json!(n)))),
        "n": r.latency_us.len(),
        "window_p50_us": r.windows.iter().map(|w| w.0).collect::<Vec<_>>(),
        "p95_us": load::percentile(&r.latency_us, 0.95),
        "late_p99_us": load::percentile(&r.late_us, 0.99),
        "tail_lateness_us": r.tail_lateness_us,
        "service_us": service,
        "count": count,
        "violations": violations,
    })
}

fn frames_json(frames: &[load::Frame], status: &Result<(), String>) -> Value {
    let list: Vec<Value> = frames
        .iter()
        .map(|f| json!([f.at_ms, f.epoch, f.event, f.etag]))
        .collect();
    json!({
        "frames": list,
        "error": status.as_ref().err(),
    })
}

/// An open-loop phase or a ladder, optionally beside an SSE subscriber
/// (which then takes one of the `--conns` connections).
fn cmd_load(opts: &BTreeMap<String, String>, ladder: bool) -> Result<Value, String> {
    let mix = load::Mix::read(&opt::<String>(opts, "targets")?).map_err(|e| e.to_string())?;
    let sse = opts.contains_key("sse");
    let conns: usize = opt(opts, "conns")?;
    let cfg = load::LoadConfig {
        addr: opt(opts, "addr")?,
        rate: if ladder { 1.0 } else { opt(opts, "rate")? },
        seconds: if ladder { 1.0 } else { opt(opts, "seconds")? },
        conns: if sse { conns - 1 } else { conns }.max(1),
        seed: opt(opts, "seed")?,
        live: opts.contains_key("live"),
        windows: opts
            .get("windows")
            .and_then(|w| w.parse().ok())
            .unwrap_or(1),
    };
    let etag = load::EtagSource::new(&opt::<String>(opts, "etag")?);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let subscriber = sse.then(|| {
            let etag = etag.clone();
            let addr = cfg.addr.clone();
            let stop = &stop;
            s.spawn(move || {
                let forever = Instant::now() + Duration::from_secs(3600);
                load::subscribe_from(&addr, 0, forever, &etag, stop)
            })
        });
        let mut out = if ladder {
            let (max, steps, r) = load::ladder(
                &cfg,
                &mix,
                &etag,
                opt(opts, "start-rung")?,
                opt(opts, "step-s")?,
                opt(opts, "limit-us")?,
            );
            let mut v = report_json(&r);
            set(&mut v, "max_rps", json!(max));
            set(
                &mut v,
                "steps",
                json!(steps
                    .iter()
                    .map(|(rate, pass, p99)| json!([rate, pass, p99]))
                    .collect::<Vec<_>>()),
            );
            v
        } else {
            report_json(&load::run(&cfg, &mix, &etag))
        };
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = subscriber {
            let (frames, status) = h.join().expect("sse thread panicked");
            set(&mut out, "sse", frames_json(&frames, &status));
        }
        Ok(out)
    })
}

fn cmd_sse(opts: &BTreeMap<String, String>) -> Result<Value, String> {
    let addr: String = opt(opts, "addr")?;
    let seconds: f64 = opt(opts, "seconds")?;
    let etag = load::EtagSource::new("");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (frames, status) = load::subscribe_from(&addr, 0, deadline, &etag, &stop);
    Ok(json!({ "sse": frames_json(&frames, &status) }))
}

fn cmd_trace(opts: &BTreeMap<String, String>) -> Result<Value, String> {
    let cfg = trace::TraceConfig {
        workload: opt(opts, "workload")?,
        eco_seed: opt(opts, "eco-seed")?,
        churn_seed: opt(opts, "churn-seed")?,
        data_dir: opt(opts, "data-dir")?,
        targets: opt(opts, "targets")?,
        seed: opt(opts, "seed")?,
        seconds: opt(opts, "seconds")?,
        spans_out: opt(opts, "spans")?,
    };
    let out = trace::run(&cfg)?;
    let epochs = obj(out.epochs.iter().map(|(e, t)| (e, json!(t))));
    Ok(json!({
        "etag": out.etag,
        "epochs": epochs,
        "metrics": obj(out.metrics.iter().map(|(k, v)| (k, json!(v)))),
        "setup_s": out.setup_s,
        "setup_covered_s": out.setup_covered_s,
    }))
}

/// Check served links (`a b` per line) against the ground truth of the
/// benchmark's own copy of the ecosystem.
fn cmd_truth(opts: &BTreeMap<String, String>) -> Result<Value, String> {
    let seed: u64 = opt(opts, "eco-seed")?;
    let eco = mlpeer_ixp::Ecosystem::generate(mlpeer_bench::Scale::Medium.config(seed));
    let truth = eco.all_ground_truth_links();
    let text = std::fs::read_to_string(opt::<String>(opts, "links")?).map_err(|e| e.to_string())?;
    let (mut n, mut wrong, mut example) = (0u64, 0u64, None);
    for line in text.lines() {
        let mut it = line.split_whitespace().map(|x| x.parse::<u32>());
        let (Some(Ok(a)), Some(Ok(b))) = (it.next(), it.next()) else {
            return Err(format!("bad link line `{line}`"));
        };
        n += 1;
        let (a, b) = (mlpeer_bgp::Asn(a.min(b)), mlpeer_bgp::Asn(a.max(b)));
        if !truth.contains(&(a, b)) {
            wrong += 1;
            example.get_or_insert_with(|| line.to_string());
        }
    }
    Ok(json!({ "links": n, "not_in_truth": wrong, "example": example }))
}
