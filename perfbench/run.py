#!/usr/bin/env python3
"""End-to-end benchmark of the served system (`mlpeer-serve` at Medium).

    python3 perfbench/run.py --workload boot|query|live --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The script builds `mlpeer-serve` and the
`perfbench` helper in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), drives the real binary through one workload, checks
its answers, and prints one JSON line last on stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run also replays the workload in process with a span around every
layer call and reports the per-layer ones. It exits 1 when a
correctness check fails and 2 when it cannot run at all. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SCALE = "medium"
# The ecosystem is held fixed: across ecosystem seeds the Medium
# ecosystem's size changes by up to 2x (announcements, observations),
# which would swamp any change to the code. The workload seed drives
# the churn stream and the request schedule instead.
ECO_SEED = 20130501
CPUS = sorted(os.sched_getaffinity(0))
CONNS = min(2, len(CPUS))
# During measured phases the generator runs on the last CPU and the
# server on the others, so the two never queue for the same core and
# thread placement does not change between runs. Boots run unpinned.
GEN_CPUS = set(CPUS[-1:])
SERVER_CPUS = set(CPUS[:-1]) or GEN_CPUS

# Offered GET rate (requests/s) of each workload's fixed-rate reads.
RATE = {"boot": 3000, "query": 3000, "live": 800}
# The latency limit the ladder holds p99 under, per workload: a live
# server renders every body on demand (a 434 KB link list takes ~3 ms)
# beside a refresher that keeps one core busy.
LIMIT_US = {"boot": 10_000, "query": 10_000, "live": 50_000}
# Share of --seconds each workload's fixed-rate read phase lasts.
READ_SHARE = {"boot": 0.5, "query": 0.5, "live": 1.0}
LADDER_STEP_S = 0.8
# Ladder rungs are 500 * 2^(k/16) requests/s; the climb starts here.
LADDER_START = {"boot": 64, "query": 64, "live": 16}
SETUPS = {"query": 3, "live": 3}
READY_TIMEOUT_S = 240
# A read phase that lost more CPU time than this to the hypervisor
# (steal in /proc/stat) is repeated; see Run.reads.
STEAL_LIMIT = 0.05


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


class Failed(Exception):
    """A correctness check failed."""


class Ledger:
    """Operations attempted and failed, and correctness violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok=True, n=1, failed=None):
        self.attempted += n
        self.failed += (0 if ok else n) if failed is None else failed

    def check(self, cond, what):
        if not cond:
            self.problems.append(what)
            log(f"CHECK FAILED: {what}")
        return cond


def build():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mlpeer-serve",
         "--bin", "mlpeer-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    server = os.path.join(target, "release", "mlpeer-serve")
    helper = os.path.join(target, "release", "perfbench")
    with open(server, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    return server, helper, digest


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(addr, path, timeout=30.0):
    host, port = addr.split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def get_json(addr, path):
    status, headers, body = http_get(addr, path)
    if status != 200:
        raise Failed(f"GET {path} answered {status}")
    return json.loads(body), headers


class Server:
    """One `mlpeer-serve` process on a free loopback port."""

    def __init__(self, binary, args, tag):
        self.addr = f"127.0.0.1:{free_port()}"
        self.err = open(os.path.join(WORK, f"server-{tag}.log"), "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, SCALE, f"--addr={self.addr}", f"--seed={ECO_SEED}", *args],
            stdout=subprocess.DEVNULL, stderr=self.err)

    def wait_ready(self):
        """Seconds from spawn to the first correct 200 on /v1/ixps, and
        the ETag it carried."""
        deadline = self.spawned + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise Failed(f"server exited with {self.proc.returncode} during boot")
            try:
                status, headers, body = http_get(self.addr, "/v1/ixps", timeout=5)
            except OSError:
                # Fine-grained while a restart could finish, then gentle
                # so polling does not slow a long boot.
                waited = time.monotonic() - self.spawned
                time.sleep(0.002 if waited < 2 else 0.02)
                continue
            elapsed = time.monotonic() - self.spawned
            doc = json.loads(body)
            etag = headers.get("ETag", "").strip('"')
            if status != 200 or not etag or not doc.get("ixps"):
                raise Failed(f"first /v1/ixps answer is wrong: {status}")
            return elapsed, etag
        raise Failed(f"server not ready within {READY_TIMEOUT_S}s")

    def pin(self, live_reads=False):
        """Move every thread of the server onto SERVER_CPUS. With
        `live_reads`, only the live refresher goes there and the rest
        (the reactor) shares the generator's CPUs: reads and writes each
        get a core, as on a host where the clients are elsewhere."""
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{tid}/comm") as f:
                    name = f.read().strip()
                refresher = name == "mlpeer-serve-live"
                cpus = SERVER_CPUS if refresher or not live_reads else GEN_CPUS
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass  # the thread has exited

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failed("no VmHWM for the server")

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


class Run:
    """One benchmark run: its servers, helper calls and checks."""

    def __init__(self, args, server_bin, helper, digest):
        self.args = args
        self.server_bin = server_bin
        self.helper = helper
        self.digest = digest
        self.ledger = Ledger()
        self.servers = []
        self.dirs = 0
        self.e2e = {}
        self.layer = {}
        self.state_path = os.path.join(WORK, "state.json")
        try:
            with open(self.state_path) as f:
                self.state = json.load(f)
        except (OSError, ValueError):
            self.state = {}
        self.mine = self.state.setdefault(digest, {"epochs": {}})

    # ---- plumbing ----

    def fresh_dir(self, name):
        self.dirs += 1
        path = os.path.join(WORK, "run", f"{name}-{self.dirs}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def spawn(self, args, tag):
        srv = Server(self.server_bin, args, tag)
        self.servers.append(srv)
        return srv

    def stop(self, srv):
        srv.stop()
        self.servers.remove(srv)

    def stop_all(self):
        for srv in list(self.servers):
            self.stop(srv)

    def setup(self, args, tag):
        """Spawn a server and wait for its first correct 200."""
        srv = self.spawn(args, tag)
        try:
            setup_s, etag = srv.wait_ready()
        except Failed:
            self.ledger.op(ok=False)
            raise
        self.ledger.op()
        return srv, setup_s, etag

    def helper_json(self, *args):
        out = subprocess.run([self.helper, *args], stdout=subprocess.PIPE,
                             stderr=sys.stderr, check=False,
                             preexec_fn=lambda: os.sched_setaffinity(0, GEN_CPUS))
        if out.returncode != 0:
            raise Failed(f"perfbench {args[0]} exited with {out.returncode}")
        return json.loads(out.stdout.decode().strip().splitlines()[-1])

    def save_state(self):
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.state, f)
        os.replace(tmp, self.state_path)

    # ---- checks shared by the workloads ----

    def check_boot_etag(self, etag, what):
        known = self.mine.setdefault("etag", etag)
        self.ledger.check(known == etag,
                          f"{what} ETag {etag} differs from {known} of an earlier run of this build")

    def check_epochs(self, pairs, what):
        """ETag at each epoch number must match every run of this seed."""
        seen = self.mine["epochs"].setdefault(str(self.args.seed), {})
        bad = [(e, t, seen[e]) for e, t in pairs if seen.setdefault(e, t) != t]
        self.ledger.check(not bad, f"{what}: ETag at epoch differs across runs: {bad[:3]}")

    def load_checks(self, rep, what):
        """Count a helper report's requests and check its answers."""
        self.ledger.op(n=rep["attempted"], failed=rep["failed"])
        for rule, (n, example) in rep["violations"].items():
            self.ledger.check(False, f"{what}: {rule} broken {n}x, e.g. {example}")
        if rep["fail_reasons"]:
            log(f"{what}: failures {rep['fail_reasons']}")

    # ---- phases ----

    def discover(self, srv):
        """Write the targets file for the GET mix from the served API."""
        doc, _ = get_json(srv.addr, "/v1/ixps")
        ids = [row["id"] for row in doc["ixps"]]
        links = []
        for i in ids:
            body, _ = get_json(srv.addr, f"/v1/ixp/{i}/links")
            links.extend(body["links"])
        members = sorted({asn for link in links for asn in link})
        every, _ = get_json(srv.addr, "/v1/prefix/0.0.0.0/0")
        announced = sorted({row["prefix"] for row in every["covered"]})
        aggregates = sorted(aggregates_of(announced) - set(announced))
        self.ledger.op(n=len(ids) + 2)
        lines = [f"member\t/v1/member/{m}" for m in members]
        lines += [f"prefix_exact\t/v1/prefix/{p}" for p in announced]
        lines += [f"prefix_agg\t/v1/prefix/{p}" for p in aggregates]
        lines += [f"ixp_links\t/v1/ixp/{i}/links" for i in ids]
        lines += ["ixps\t/v1/ixps", "validate\t/v1/validate"]
        path = os.path.join(WORK, "run", "targets.tsv")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        log(f"targets: {len(members)} members, {len(announced)} prefixes, "
            f"{len(aggregates)} aggregates, {len(ids)} IXPs")
        return path, links

    def reads(self, srv, targets, etag, rate, seconds, live=False, sse=False):
        """The fixed-rate phase. p95 is taken over the whole phase, so a
        stall that holds up a twentieth of the requests shows; p50 per
        window of 200 requests, averaged over the middle half of the
        windows (see `iqm`). On `boot` and `query`, a phase during which
        the hypervisor took more than STEAL_LIMIT of the CPUs' time
        measured the host, not the server: it is repeated once, and the
        attempt with the least stolen time counts. On `live` the tail is
        set by publish stalls of several ms, far above what steal moves,
        and a ten-second phase is too long to repeat."""
        srv.pin(live_reads=live)
        args = ["load", f"--addr={srv.addr}", f"--targets={targets}",
                f"--rate={rate}", f"--seconds={seconds}", f"--conns={CONNS}",
                f"--seed={self.args.seed}", f"--etag={etag}",
                f"--windows={max(1, int(rate * seconds) // 200)}"]
        args += ["--live"] if live else []
        args += ["--sse"] if sse else []
        best = None
        for _ in range(1 if live else 2):
            before, _ = get_json(srv.addr, "/v1/stats")
            cpu0, t0 = cpu_times(), time.monotonic()
            rep = self.helper_json(*args)
            rep["window_s"] = time.monotonic() - t0
            rep["p50_us"] = iqm(rep["window_p50_us"])
            rep["steal"] = stolen(cpu0, cpu_times())
            after, _ = get_json(srv.addr, "/v1/stats")
            rep["stats"] = (before, after)
            self.load_checks(rep, "reads")
            log(f"reads @{rate}/s: p50 {rep['p50_us']:.0f}us p95 {rep['p95_us']:.0f}us "
                f"late p99 {rep['late_p99_us']:.0f}us n={rep['n']}, "
                f"{rep['steal']:.1%} of CPU time stolen")
            if best is None or rep["steal"] < best["steal"]:
                best = rep
            if rep["steal"] <= STEAL_LIMIT:
                break
            log("the hypervisor took the CPUs: repeating the phase")
        if best["late_p99_us"] > LIMIT_US[self.args.workload] / 10:
            log("WARNING: the generator fell behind its schedule; "
                "latencies include its own delay")
        return best

    def ladder(self, srv, targets, etag, live=False):
        srv.pin(live_reads=live)
        args = ["ladder", f"--addr={srv.addr}", f"--targets={targets}",
                f"--conns={CONNS}", f"--seed={self.args.seed}", f"--etag={etag}",
                f"--start-rung={LADDER_START[self.args.workload]}",
                f"--step-s={LADDER_STEP_S}",
                f"--limit-us={LIMIT_US[self.args.workload]}"]
        args += ["--live"] if live else []
        rep = self.helper_json(*args)
        self.load_checks(rep, "ladder")
        log("ladder: " + " ".join(f"{r:.0f}{'+' if ok else '-'}" for r, ok, _ in rep["steps"])
            + f" -> {rep['max_rps']:.0f}/s")
        return rep["max_rps"]

    def sse_summary(self, sse, what):
        """Check an SSE stream and return its epoch gaps in ms."""
        self.ledger.op(ok=sse["error"] is None)
        self.ledger.check(sse["error"] is None, f"{what}: SSE stream dropped: {sse['error']}")
        frames = sse["frames"]
        epochs = [f[1] for f in frames]
        self.ledger.check(all(a < b for a, b in zip(epochs, epochs[1:])),
                          f"{what}: SSE epochs not strictly increasing")
        self.ledger.check(len(frames) >= 3, f"{what}: only {len(frames)} SSE frames")
        self.check_epochs([(str(f[1]), f[3]) for f in frames], what)
        # The first frame is the catch-up answer to the subscription.
        times = [f[0] for f in frames[1:]]
        gaps = [b - a for a, b in zip(times, times[1:])]
        span = epochs[-1] - epochs[0] if len(epochs) > 1 else 0
        return gaps, (len(frames) - 1) / span if span else 0.0

    def live_metrics(self, stats, sse, what):
        before, after = stats
        lb, la = before["live"], after["live"]
        self.ledger.op(n=la["ticks"] - lb["ticks"], failed=la["restarts"])
        self.ledger.check(la["restarts"] == 0, f"{what}: live.restarts = {la['restarts']}")
        gaps, frames_per_epoch = self.sse_summary(sse, what)
        deciles = statistics.quantiles(gaps, n=10) if len(gaps) >= 2 else [0.0] * 9
        # The median gap per window of 4 epochs, averaged over the middle
        # half of the windows (see `iqm`).
        windows = [gaps[i:i + 4] for i in range(0, len(gaps) - 3, 4)] or [gaps or [0.0]]
        return {
            "live_epoch_gap_p50_ms": iqm(statistics.median(w) for w in windows),
            "live_epoch_gap_p90_ms": deciles[8],
        }, frames_per_epoch

    def live_tail(self):
        """A live server beside the batch workloads, with one SSE
        subscriber and no reads: the write path on its own."""
        srv, _, _ = self.setup(["--live", "--live-tick-ms=1",
                                f"--churn-seed={self.args.seed}",
                                f"--data-dir={self.fresh_dir('tail')}"], "tail")
        srv.pin()  # one busy thread: pinning costs nothing, placement stays put
        time.sleep(1)  # past the first ticks, as the reads of `live` are
        stats0, _ = get_json(srv.addr, "/v1/stats")
        t0 = time.monotonic()
        rep = self.helper_json("sse", f"--addr={srv.addr}",
                               f"--seconds={self.args.seconds * 0.6}")
        stats1, _ = get_json(srv.addr, "/v1/stats")
        window = time.monotonic() - t0
        m, _ = self.live_metrics((stats0, stats1), rep["sse"], "live tail")
        m["live_events_per_s"] = (stats1["live"]["events"] - stats0["live"]["events"]) / window
        self.stop(srv)
        return m

    def cached_log(self):
        """A durable log this build wrote at Medium (batch boot with an
        empty --data-dir), written once per build and reused."""
        path = os.path.join(WORK, "cache", self.digest, "log")
        if not os.path.isdir(path):
            data = self.fresh_dir("log")
            log("writing the Medium durable log (one batch boot)")
            srv, _, etag = self.setup([f"--data-dir={data}"], "log")
            self.check_boot_etag(etag, "log-writing boot")
            self.stop(srv)
            save_log(data, path)
        return path

    # ---- workloads ----

    def boot(self):
        if not self.args.trace:
            self.e2e.update(self.live_tail())
        data = self.fresh_dir("boot")
        srv, setup_s, etag = self.setup([f"--data-dir={data}"], "boot")
        log(f"boot: first correct 200 after {setup_s:.3f}s, ETag {etag}")
        self.check_boot_etag(etag, "boot")
        targets, links = self.discover(srv)
        self.check_truth(links)
        rep = self.reads(srv, targets, etag, RATE["boot"],
                         self.args.seconds * READ_SHARE["boot"])
        self.e2e.update(setup_s=setup_s, query_p50_us=rep["p50_us"],
                        query_p95_us=rep["p95_us"])
        if not self.args.trace:
            self.e2e["query_max_rps"] = self.ladder(srv, targets, etag)
        self.served_layers(srv, rep)
        self.e2e["peak_rss_mb"] = srv.peak_rss_mb()
        self.stop(srv)
        cache = os.path.join(WORK, "cache", self.digest, "log")
        if not os.path.isdir(cache):
            save_log(data, cache)
        if self.args.trace:
            self.replay("boot", self.fresh_dir("trace"), targets, etag)

    def check_truth(self, links):
        path = os.path.join(WORK, "run", "links.txt")
        with open(path, "w") as f:
            f.writelines(f"{a} {b}\n" for a, b in links)
        out = self.helper_json("truth", f"--eco-seed={ECO_SEED}", f"--links={path}")
        self.ledger.check(out["links"] > 0 and out["not_in_truth"] == 0,
                          f"{out['not_in_truth']} of {out['links']} served links are not "
                          f"ground-truth links, e.g. {out['example']}")

    def query(self):
        if not self.args.trace:
            self.e2e.update(self.live_tail())
        logdir = self.cached_log()
        setups = []
        for i in range(SETUPS["query"]):
            data = self.fresh_dir("restart")
            copy_log(logdir, data)
            srv, setup_s, etag = self.setup([f"--data-dir={data}"], f"restart{i}")
            self.check_boot_etag(etag, "restart")
            setups.append(setup_s)
            if i + 1 < SETUPS["query"]:
                self.stop(srv)
        log(f"restarts: first correct 200 after {', '.join(f'{s:.3f}' for s in setups)}s")
        targets, _ = self.discover(srv)
        rep = self.reads(srv, targets, etag, RATE["query"],
                         self.args.seconds * READ_SHARE["query"])
        self.e2e.update(setup_s=statistics.median(setups), query_p50_us=rep["p50_us"],
                        query_p95_us=rep["p95_us"])
        if not self.args.trace:
            self.e2e["query_max_rps"] = self.ladder(srv, targets, etag)
        self.served_layers(srv, rep)
        self.e2e["peak_rss_mb"] = srv.peak_rss_mb()
        self.stop(srv)
        if self.args.trace:
            data = self.fresh_dir("trace")
            copy_log(logdir, data)
            self.replay("query", data, targets, etag)

    def live(self):
        setups = []
        for i in range(SETUPS["live"]):
            srv, setup_s, etag = self.setup(
                ["--live", "--live-tick-ms=1", f"--churn-seed={self.args.seed}",
                 f"--data-dir={self.fresh_dir('live')}"], f"live{i}")
            setups.append(setup_s)
            if i + 1 < SETUPS["live"]:
                self.stop(srv)
        log(f"live boots: first correct 200 after {', '.join(f'{s:.3f}' for s in setups)}s")
        targets, _ = self.discover(srv)
        rep = self.reads(srv, targets, etag, RATE["live"],
                         self.args.seconds * READ_SHARE["live"], live=True, sse=True)
        m, frames_per_epoch = self.live_metrics(rep["stats"], rep["sse"], "live")
        before, after = rep["stats"]
        m["live_events_per_s"] = (after["live"]["events"] - before["live"]["events"]) / \
            rep["window_s"]
        log(f"live: {m['live_events_per_s']:.1f} events/s, epoch gap p50 "
            f"{m['live_epoch_gap_p50_ms']:.1f}ms p90 {m['live_epoch_gap_p90_ms']:.1f}ms")
        self.e2e.update(m)
        self.e2e.update(setup_s=statistics.median(setups), query_p50_us=rep["p50_us"],
                        query_p95_us=rep["p95_us"])
        if not self.args.trace:
            self.e2e["query_max_rps"] = self.ladder(srv, targets, etag, live=True)
        self.served_layers(srv, rep, frames_per_epoch)
        self.e2e["peak_rss_mb"] = srv.peak_rss_mb()
        self.stop(srv)
        if self.args.trace:
            self.replay("live", self.fresh_dir("trace"), targets, etag)

    # ---- per-layer figures ----

    def served_layers(self, srv, rep, frames_per_epoch=0.0):
        """Per-layer figures the served process gives: reactor
        counters over the read phase, CPU time, generator lateness."""
        before, after = rep["stats"]
        reqs = max(1, rep["attempted"])
        rb, ra = before["reactor"], after["reactor"]
        self.layer.update({
            "serve.reactor.wakeups_per_req": (ra["wakeups"] - rb["wakeups"]) / reqs,
            "serve.reactor.writev_cont_per_req":
                (ra["writev_continuations"] - rb["writev_continuations"]) / reqs,
            "serve.sse_frames_per_epoch": frames_per_epoch,
            "proc.cpu_s": srv.cpu_s(),
            "loadgen.late_p99_us": rep["late_p99_us"],
        })
        self.http_service = (rep["count"], rep["service_us"])

    def replay(self, workload, data, targets, etag):
        spans = os.path.join(WORK, f"spans-{workload}-{self.args.seed}.jsonl")
        out = self.helper_json(
            "trace", f"--workload={workload}", f"--eco-seed={ECO_SEED}",
            f"--churn-seed={self.args.seed}", f"--data-dir={data}",
            f"--targets={targets}", f"--seed={self.args.seed}",
            f"--seconds={self.args.seconds}", f"--spans={spans}")
        log(f"traced {workload}: first 200 after {out['setup_s']:.3f}s, "
            f"ETag {out['etag']}, spans in {os.path.relpath(spans, ROOT)}")
        self.ledger.check(out["etag"] == etag,
                          f"traced ETag {out['etag']} differs from the served {etag}")
        if workload == "live":
            # The served epochs of this seed are already in the state.
            self.check_epochs(list(out["epochs"].items()), "traced live")
        m = out["metrics"]
        untraced = self.e2e["setup_s"]
        m["trace.overhead"] = out["setup_s"] / untraced
        if workload == "boot":
            self.ledger.check(out["setup_covered_s"] >= 0.9 * untraced,
                              f"traced stages cover {out['setup_covered_s']:.2f}s of the "
                              f"untraced {untraced:.2f}s boot")
        # Transport: HTTP service time minus the in-process route time,
        # weighted by the mix.
        counts, service = self.http_service
        suffix = ".uncached" if workload == "live" else ""
        total = sum(counts.values())
        m["serve.transport_us"] = sum(
            n * (service[c] - m[f"serve.route_us.{c}{suffix}"])
            for c, n in counts.items()) / max(1, total)
        self.layer.update(m)


def cpu_times():
    """Per-CPU (total, steal) jiffies from /proc/stat."""
    out = {}
    with open("/proc/stat") as f:
        for line in f:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                ticks = [int(x) for x in fields[:8]]
                out[name] = (sum(ticks), ticks[7])
    return out


def stolen(before, after):
    """Share of the CPUs' time the hypervisor took between two samples."""
    total = sum(after[c][0] - before[c][0] for c in after if c in before)
    steal = sum(after[c][1] - before[c][1] for c in after if c in before)
    return steal / total if total else 0.0


def iqm(values):
    """Mean of the middle half: smooth in the share of slow values,
    deaf to a few stalls."""
    v = sorted(values)
    cut = len(v) // 4
    mid = v[cut:len(v) - cut] or v
    return sum(mid) / len(mid)


def aggregates_of(prefixes):
    """Covering CIDRs four and eight bits shorter than each announced
    prefix (no shorter than /8): queries that miss the body cache and
    render through the index's prefix trie."""
    out = set()
    for p in prefixes:
        addr, length = p.split("/")
        length = int(length)
        if ":" in addr:
            continue
        value = int.from_bytes(socket.inet_aton(addr), "big")
        for cut in (4, 8):
            n = max(8, length - cut)
            mask = (0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF
            out.add(f"{socket.inet_ntoa((value & mask).to_bytes(4, 'big'))}/{n}")
    return out


def copy_log(src, dst):
    shutil.rmtree(dst)
    shutil.copytree(src, dst)


def save_log(data, path):
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.copytree(data, tmp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["boot", "query", "live"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The metric names and units are BENCHMARK.json's.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(os.path.join(WORK, "run"), exist_ok=True)
    try:
        server_bin, helper, digest = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        sys.exit(2)
    run = Run(args, server_bin, helper, digest)
    try:
        getattr(run, args.workload)()
    except Exception as e:  # noqa: BLE001 -- any abort is a failed run
        run.ledger.check(False, f"{args.workload} aborted: {e!r}")
    finally:
        run.stop_all()
        shutil.rmtree(os.path.join(WORK, "run"), ignore_errors=True)
    run.save_state()

    ledger = run.ledger
    values = run.layer if args.trace else run.e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            ledger.check(False, f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = not ledger.problems
    print(json.dumps({"correct": correct, "attempted": max(1, ledger.attempted),
                      "failed": ledger.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
