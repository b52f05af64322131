"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload select_sim --seed 1 --seconds 28 --trace 0

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics; ``--trace 1`` runs it twice more -- once untraced,
once with every layer's public entry points wrapped in spans -- checks
that both runs return identical results, and reports the per-layer
metrics.  Every output is checked against an oracle; a mismatch fails
the run (exit code 1).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (fails fast outside a source checkout)
from layertrace import LAYERS, TRACKED_KERNELS, Tracer, instrument  # noqa: E402
import workloads  # noqa: E402

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5
#: the run is cut into this many equal time windows; latency metrics
#: are the median over windows of each window's percentile, so a burst
#: of interference from outside (other tenants of the host) that covers
#: less than half of the run does not move them
WINDOWS = 5


#: body of the idle-priority spinners started by :func:`busy_cpus`
#: (each exits on its own if the benchmark dies and it is reparented)
_SPIN = ("import os, sys\n"
         "parent = int(sys.argv[1])\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "while os.getppid() == parent:\n    pass\n")


@contextlib.contextmanager
def busy_cpus():
    """Keep every CPU busy with a ``SCHED_IDLE`` spinner for the run.

    On a virtual machine an idle CPU halts, and waking it costs far more
    (and varies far more with the host's load) than waking a process on
    a CPU that is running something.  The ``mp`` workloads wait on pipes
    between short bursts of work, so without this their wall time drifts
    by up to 2x from run to run.  ``SCHED_IDLE`` tasks run only on a CPU
    that has nothing else to run and yield to any woken task at once,
    so the benchmark's own processes never wait for them.
    """
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())])
             for _ in os.sched_getaffinity(0)]
    try:
        yield
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()


def pct(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    vals = sorted(values)
    if not vals:
        return math.nan
    return vals[max(0, math.ceil(q / 100.0 * len(vals)) - 1)]


def windowed(offsets, values, seconds: float) -> tuple[float, float]:
    """(p50, p90) of ``values`` as medians over time windows, by each
    sample's start ``offsets`` (seconds into the run)."""
    width = seconds / WINDOWS
    groups: list[list[float]] = [[] for _ in range(WINDOWS)]
    for off, v in zip(offsets, values):
        if not math.isnan(v):
            groups[min(WINDOWS - 1, max(0, int(off / width)))].append(v)
    groups = [g for g in groups if g]
    return (statistics.median(statistics.median(g) for g in groups),
            statistics.median(pct(g, 90) for g in groups))


def host_metadata(workload: workloads.Workload) -> dict:
    from repro.kernels import effective_mode, numba_available

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_available(),
        "kernels": effective_mode(),
        "git_sha": git_sha(),
        "backend": workload.backend,
        "p": workload.p,
        "oversubscribed": workload.backend != "sim" and workload.p > nproc,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def leftovers() -> list[str]:
    """Child processes and ``/dev/shm`` segments this process still owns."""
    from repro.machine.backends.shm import pool_family, segment_names

    for _ in range(50):  # workers exit right after close(); give them a beat
        kids = multiprocessing.active_children()
        segs = segment_names(pool_family("").removesuffix("-"))
        if not kids and not segs:
            return []
        time.sleep(0.1)
    return [f"process {k.name}" for k in kids] + [f"shm {s}" for s in segs]


class Run:
    """Attempt/failure bookkeeping shared by every mode."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def checked(self, n_ops: int, fn, *args) -> None:
        self.attempted += n_ops
        try:
            fn(*args)
        except workloads.Mismatch as exc:
            self.failed += n_ops
            self.notes.append(f"oracle mismatch: {exc}")

    def hygiene(self, wl: workloads.Workload) -> None:
        wl.close()
        if wl.backend == "sim":
            return
        self.attempted += 1
        left = leftovers()
        if left:
            self.failed += 1
            self.notes.append(f"{wl.name} left behind after close: {left}")


# ----------------------------------------------------------------------
# Closed-loop workloads (select_*, update_mix_mp)
# ----------------------------------------------------------------------
WARMUP_IT = 1 << 20  # iteration index of the set-up's warm-up call


def setup_closed(wl, run: Run, index: int = 0) -> float:
    t0 = time.perf_counter()
    wl.setup(index)
    _, res = wl.iterate(WARMUP_IT)
    dt = time.perf_counter() - t0
    run.checked(len(wl.ops), wl.verify, WARMUP_IT, res)
    return dt


def loop_closed(wl, run: Run, seconds: float, iters: int | None = None,
                tracer: Tracer | None = None) -> dict:
    """Iterate for ``seconds`` (or exactly ``iters`` times)."""
    walls, ops, models, digests, starts = [], [], [], [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    it = 0
    while (it < iters) if iters is not None else (time.perf_counter() < t_end or it < 3):
        m0 = wl.model_s()
        starts.append(time.perf_counter() - t_start)
        if tracer is None:
            t0 = time.perf_counter()
            op_walls, res = wl.iterate(it)
            walls.append(time.perf_counter() - t0)
        else:
            op_walls, res = tracer.call("bench.iter", wl.iterate, it)
            walls.append(tracer.spans[-1].dur)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            models.append(wl.model_s() - m0)
            digests.append(wl.digest(res))
            run.checked(len(wl.ops), wl.verify, it, res)
        ops.append(op_walls)
        it += 1
    return {"walls": walls, "ops": ops, "models": models, "digests": digests,
            "starts": starts}


def closed_e2e(wl, run: Run, seconds: float) -> dict:
    setups = []
    for i in range(SETUPS):
        setups.append(setup_closed(wl, run, i))
        if i < SETUPS - 1:
            run.hygiene(wl)
    r = loop_closed(wl, run, seconds)
    run.hygiene(wl)
    walls_ms = [w * 1e3 for w in r["walls"]]
    p50, p90 = windowed(r["starts"], walls_ms, seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "iter_p50_ms": (p50, "ms"),
        "iter_p90_ms": (p90, "ms"),
        "model_ms": (statistics.fmean(r["models"]) * 1e3, "ms"),
    }
    info = {"iterations": len(walls_ms),
            "iters_per_s": len(walls_ms) / sum(r["walls"])}
    for j, op in enumerate(wl.ops):
        info[f"{op}_p50_ms"] = statistics.median(o[j] for o in r["ops"]) * 1e3
    return metrics, info


def backend_counters(m) -> dict:
    b = m.backend
    rep = m.report()
    out = {
        "busy_s": b.wall_time,
        "driver_sends": getattr(b, "driver_sends", 0),
        "recoveries": getattr(b, "recoveries", 0),
        "wire_bytes": rep.wire_bytes,
        "shm_bytes": rep.shm_bytes,
        "volume_words": rep.bottleneck_words,
        "startups": rep.bottleneck_startups,
        "traffic_words": rep.total_traffic,
        "worker_msgs": 0, "worker_wire_bytes": 0, "worker_shm_bytes": 0,
    }
    if b.is_real:
        out["worker_msgs"] = sum(b.worker_message_counts())
        wt = b.worker_transport_counts()
        out["worker_wire_bytes"] = sum(w["wire_tx"] for w in wt)
        out["worker_shm_bytes"] = sum(w["shm_tx"] for w in wt)
    return out


def layer_metrics(tracer: Tracer, roots: set[int], wall_ms: float, per: int) -> dict:
    """Per-layer self times (ms per ``per`` units) and their remainder."""
    selfs: dict[str, float] = {}
    for rid, layers in tracer.self_ms_by_root().items():
        if rid in roots:
            for layer, ms in layers.items():
                selfs[layer] = selfs.get(layer, 0.0) + ms
    out = {f"{layer}.self_ms": selfs.get(layer, 0.0) / per for layer in LAYERS}
    out["unattributed_ms"] = (wall_ms - sum(v for k, v in selfs.items()
                                            if k != "unattributed")) / per
    out["wall_ms"] = wall_ms / per
    return out


def span_metrics(tracer: Tracer, per: int) -> dict:
    out = {}
    kspans = tracer.named("kernels.")
    out["kernels.calls"] = len(kspans) / per
    out["kernels.ms"] = sum(s.dur for s in kspans) * 1e3 / per
    for name in TRACKED_KERNELS:
        ks = [s for s in kspans if s.name == f"kernels.{name}"]
        out[f"kernels.{name}.calls"] = len(ks) / per
        out[f"kernels.{name}.ms"] = sum(s.dur for s in ks) * 1e3 / per
        out[f"kernels.{name}.elems_per_call"] = (
            tracer.counts.get(f"kernels.{name}.elems", 0) / len(ks) if ks else 0.0)
    replay = tracer.named("machine.comm.replay")
    out["machine.comm.replay.calls"] = len(replay) / per
    out["machine.comm.replay.entries"] = tracer.counts.get("machine.comm.replay.entries", 0) / per
    out["machine.comm.replay.ms"] = sum(s.dur for s in replay) * 1e3 / per
    charge = tracer.named("machine.comm.charge")
    out["machine.comm.charge.calls"] = len(charge) / per
    out["machine.comm.charge.ms"] = sum(s.dur for s in charge) * 1e3 / per
    coll = tracer.named("machine.comm.collective.")
    out["machine.comm.driver_collectives.calls"] = len(coll) / per
    out["machine.comm.driver_collectives.ms"] = sum(s.dur for s in coll) * 1e3 / per
    out["machine.backends.commands"] = tracer.counts.get("machine.backends.commands", 0) / per
    out["machine.backends.wait_ms"] = sum(
        s.dur for s in tracer.named("machine.backends.wait")) * 1e3 / per
    out["pqueue.insert_ms"] = sum(s.dur for s in tracer.named("pqueue.insert")) * 1e3 / per
    out["pqueue.delete_min_ms"] = sum(
        s.dur for s in tracer.named("pqueue.delete_min")) * 1e3 / per
    out["redistribution.moved_elems"] = tracer.counts.get("redistribution.moved_elems", 0) / per
    return out


def counter_metrics(before: dict, after: dict, m, per: int) -> dict:
    d = {k: after[k] - before[k] for k in before}
    return {
        "machine.comm.volume_words": d["volume_words"] / per,
        "machine.comm.startups": d["startups"] / per,
        "machine.comm.traffic_words": d["traffic_words"] / per,
        "machine.backends.busy_ms": d["busy_s"] * 1e3 / per,
        "machine.backends.driver_sends": d["driver_sends"] / per,
        "machine.backends.max_inflight": getattr(m.backend, "max_inflight", 0),
        "machine.backends.worker_msgs": d["worker_msgs"] / per,
        "machine.backends.recoveries": d["recoveries"],
        "machine.backends.wire_bytes": d["wire_bytes"] / per,
        "machine.backends.shm_bytes": d["shm_bytes"] / per,
        "machine.backends.worker_wire_bytes": d["worker_wire_bytes"] / per,
        "machine.backends.worker_shm_bytes": d["worker_shm_bytes"] / per,
    }


def closed_traced(wl, run: Run, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    setup_closed(wl, run)
    plain = loop_closed(wl, run, seconds / 2)
    n = len(plain["walls"])
    run.hygiene(wl)
    setup_closed(wl, run)
    m = wl.machine
    before = backend_counters(m)
    tracer = Tracer()
    with instrument(tracer, [m.backend]):
        traced = loop_closed(wl, run, 0, iters=n, tracer=tracer)
    after = backend_counters(m)
    run.hygiene(wl)
    tracer.dump(trace_path)

    run.attempted += 1
    if traced["digests"] != plain["digests"] or traced["models"] != plain["models"]:
        run.failed += 1
        run.notes.append("traced run differs from the untraced run "
                         "(results or modeled cost)")
    roots = {s.id for s in tracer.named("bench.iter")}
    wall_ms = sum(traced["walls"]) * 1e3
    out = layer_metrics(tracer, roots, wall_ms, n)
    out.update(span_metrics(tracer, n))
    out.update(counter_metrics(before, after, m, n))
    out["trace.overhead_ms"] = (sum(traced["walls"]) - sum(plain["walls"])) * 1e3 / n
    out["machine.comm.model_ms"] = statistics.fmean(plain["models"]) * 1e3
    for j, op in enumerate(wl.ops):
        out[f"{op}_p50_ms"] = statistics.median(o[j] for o in plain["ops"]) * 1e3
    return out, {"iterations": n}


# ----------------------------------------------------------------------
# Open-loop serving
# ----------------------------------------------------------------------
def serve_epoch(wl, run: Run, seconds: float) -> dict:
    stats0 = dict(wl.engine.stats)
    r = wl.serve(0, seconds)
    r["stats"] = {k: wl.engine.stats[k] - stats0[k] for k in stats0}
    for q, ans, err, done in zip(r["queries"], r["answers"], r["errors"], r["done_at"]):
        if err is not None or math.isnan(done):
            run.attempted += 1
            run.failed += 1
            run.notes.append(f"query {q} failed: {err or 'no reply'}")
        else:
            run.checked(1, wl.verify, q, ans)
    return r


def setup_serve(wl, run: Run, index: int = 0) -> float:
    t0 = time.perf_counter()
    wl.setup(index)
    dt = time.perf_counter() - t0
    for q, ans in wl.warm_replies:
        run.checked(1, wl.verify, q, ans)
    return dt


def probe_model(wl, run: Run) -> float:
    model_s, replies = wl.probe_model()
    for q, ans in replies:
        run.checked(1, wl.verify, q, ans)
    return model_s


def serve_e2e(wl, run: Run, seconds: float) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUPS):
        setups.append(setup_serve(wl, run, i))
        if i < SETUPS - 1:
            run.hygiene(wl)
    model_s = probe_model(wl, run)
    r = serve_epoch(wl, run, seconds)
    run.hygiene(wl)
    n = len(r["queries"])
    p50, p90 = windowed(r["offsets"], [x * 1e3 for x in r["latency"]], seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "iter_p50_ms": (p50, "ms"),
        "iter_p90_ms": (p90, "ms"),
        "model_ms": (model_s * 1e3, "ms"),
    }
    info = {"queries": n, "qps": n / r["wall"],
            "batch_size": r["stats"]["queries"] / max(1, r["stats"]["batches"]),
            "late_p90_ms": pct([x * 1e3 for x in r["late"]], 90)}
    return metrics, info


def serve_traced(wl, run: Run, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    setup_serve(wl, run)
    model_s = probe_model(wl, run)
    plain = serve_epoch(wl, run, seconds / 2)
    run.hygiene(wl)
    setup_serve(wl, run)
    m = wl.machine
    before = backend_counters(m)
    tracer = Tracer()
    with instrument(tracer, [m.backend]):
        traced = serve_epoch(wl, run, seconds / 2)
        engine_thread = wl.engine._thread.ident
    after = backend_counters(m)
    run.hygiene(wl)
    tracer.dump(trace_path)

    run.attempted += 1
    if traced["answers"] != plain["answers"]:
        run.failed += 1
        run.notes.append("traced serve answers differ from the untraced run")
    n = len(traced["queries"])
    execs = sorted((s for s in tracer.spans
                    if s.thread == engine_thread and s.parent is None
                    and s.name in ("selection.multi_select",
                                   "frequent.top_k_frequent_exact")),
                   key=lambda s: s.end)
    ends = [s.end for s in execs]
    # a query's reply is set right after the execution span that
    # answered it: the latest one to end before its completion time
    exec_of, admit, lats = [], [], []
    for lat, done in zip(traced["latency"], traced["done_at"]):
        j = int(np.searchsorted(ends, done, side="right")) - 1
        if j < 0 or math.isnan(lat):
            continue
        exec_of.append(execs[j].id)
        admit.append((lat - execs[j].dur) * 1e3)
        lats.append(lat * 1e3)
    # per answered query: its batch's execution by layer + admission wait
    by_root = tracer.self_ms_by_root()
    m_q = max(1, len(exec_of))
    out = {f"{layer}.self_ms": sum(by_root[e].get(layer, 0.0) for e in exec_of) / m_q
           for layer in LAYERS}
    out["unattributed_ms"] = statistics.fmean(admit) if admit else 0.0
    out["wall_ms"] = statistics.fmean(lats) if lats else 0.0
    out.update(span_metrics(tracer, n))
    out.update(counter_metrics(before, after, m, n))
    st = traced["stats"]
    out["serve.batch_size"] = st["queries"] / max(1, st["batches"])
    out["serve.fused_per_query"] = st["fused_commands"] / max(1, st["queries"])
    out["serve.exec_ms"] = statistics.median(s.dur * 1e3 for s in execs) if execs else 0.0
    out["serve.admit_wait_ms"] = statistics.median(admit) if admit else 0.0
    out["serve.overloads"] = st["overloads"]
    out["serve.expired"] = st["expired"]
    out["serve.worker_failures"] = st["worker_failures"]
    out["loadgen.late_p90_ms"] = pct([x * 1e3 for x in traced["late"]], 90)
    out["loadgen.sent"] = n
    lat_ms = [x * 1e3 for x in traced["latency"] if not math.isnan(x)]
    plain_ms = [x * 1e3 for x in plain["latency"] if not math.isnan(x)]
    out["trace.overhead_ms"] = statistics.median(lat_ms) - statistics.median(plain_ms)
    out["machine.comm.model_ms"] = model_s * 1e3
    return out, {"queries": n}


# ----------------------------------------------------------------------
def print_table(name: str, out: dict, per: str) -> None:
    print(f"[{name}] per-layer self time per {per} (ms):")
    rows = [(f"{layer}", out.get(f"{layer}.self_ms", 0.0)) for layer in LAYERS]
    rows.append(("unattributed", out["unattributed_ms"]))
    for label, v in rows:
        print(f"  {label:<20} {v:10.3f}")
    print(f"  {'= sum':<20} {sum(v for _, v in rows):10.3f}"
          f"   (measured wall {out['wall_ms']:.3f})")


def measure(args, wl, run: Run) -> tuple[dict, dict]:
    serve = isinstance(wl, workloads.ServeWorkload)
    if args.trace:
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        fn = serve_traced if serve else closed_traced
        out, info = fn(wl, run, args.seconds, path)
        print_table(args.workload, out, "query" if serve else "iteration")
        metrics = {k: {"value": float(out.get(k, 0.0)), "unit": u}
                   for k, u in per_layer_units().items()}
        info["trace_file"] = str(path.relative_to(ROOT))
    else:
        fn = serve_e2e if serve else closed_e2e
        m, info = fn(wl, run, args.seconds)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    wl = workloads.make(args.workload, args.seed)
    meta = host_metadata(wl)
    print("host " + json.dumps(meta, sort_keys=True))
    run = Run()
    try:
        with busy_cpus():
            metrics, info = measure(args, wl, run)
    except Exception:
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        run.notes.append("run aborted by an exception (see stderr)")
        metrics, info = {}, {}
    finally:
        wl.close()
        stop_resource_tracker()

    for k, v in info.items():
        print(f"  {k} = {v}")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    for note in run.notes[:20]:
        print("FAIL: " + note, file=sys.stderr)
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the mp backend started,
    so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
