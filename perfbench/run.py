"""The repository benchmark: simulator and certifier, end to end.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

``--workload all`` (the default) runs every workload in a child process
of its own, one after another, so that each reports its own peak
memory.

Workloads (see perfbench/README.md for why each exists):
    open-instant  open arrivals of larger transactions, instant commit
    full-stack    quorum replication, 2PC, lossy network, WAL, crashes
    observed      the open-instant shape with every observer attached
    certify       the paper's deadlock and safety algorithms

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates plain and traced repetitions and reports the
per-layer metrics, whose spans are recorded from this package around
the program's entry points (perfbench/tracing.py). Both modes check
every repetition for correctness and print the workload's behaviour
record: a digest and exact counts of simulated behaviour, identical
for the same seed on any machine.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when a correctness check failed, and the run stops without a
result when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import loop_seconds, to_reference
from tracing import Tracer, instrument_simulator, layer_of

# ``repro`` and ``workloads`` (which imports it) are imported inside
# the functions below: only after import_program() has checked that
# the program comes from this checkout's src/.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes started per run to time set-up.
SETUP_PROBES = 5

#: (name, unit) of the end-to-end metrics, printed with --trace 0, and
#: of the per-layer metrics, printed with --trace 1, as BENCHMARK.json
#: names them. A request is what a user waits for: one whole
#: simulation run, or the certification of one system.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: Event kinds of the core runtime, each reported per commit.
CORE_KINDS = ("arrive", "begin", "issue", "op_done", "restart", "replica_req")

#: Deterministic counts printed in a simulator workload's behaviour
#: record, as (label, result field).
RECORD_FIELDS = (
    ("committed", "committed"),
    ("aborts", "aborts"),
    ("waits", "waits"),
    ("commit_messages", "commit_messages"),
    ("log_forces", "log_forces"),
    ("retransmits", "net_retransmits"),
    ("crashes", "crashes"),
)


def import_program():
    """Import the program from this checkout's ``src/``, or stop."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    location = Path(repro.__file__).resolve().parent.parent
    if location != SRC:
        raise SystemExit(
            f"perfbench: repro imported from {location}, not from {SRC}"
        )


def machine_fingerprint() -> dict:
    """CPU model, usable CPU count and Python version."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version()}


def median_setup_seconds(name: str, seed: int) -> tuple[float, int]:
    """Median set-up time over fresh processes, scaled to the reference
    speed, and the sample count."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"perfbench: set-up probe failed:\n{done.stderr.strip()}"
            )
        elapsed, loop_before, loop_after = map(
            float, done.stdout.split()[-3:]
        )
        samples.append(to_reference(elapsed, loop_before, loop_after))
    return statistics.median(samples), len(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Measurement:
    """What one workload run reports."""

    def __init__(self, name: str):
        self.name = name
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.record = ""
        self.accounting = ""

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------


@dataclass
class Repetition:
    """One simulator run and what the benchmark learnt from it."""

    sim: object
    result: object
    wall: float  # host seconds of run(), as measured
    scaled: float  # the same, scaled to the reference speed
    tracer: object
    errors: list[str]


def run_once(wl, seed: int, *, traced: bool = False,
             observe: bool = True) -> Repetition:
    """One repetition: build, run, check.

    Set-up and checks stay outside the timed region; only ``run()`` —
    the event loop plus the final verdict — is timed. The wall time is
    returned both as measured and scaled to the reference speed.
    """
    from workloads import check_simulation

    import repro.sim.runtime as runtime

    sim = wl.build(seed, observe=observe)
    tracer = None
    gc.collect()
    loop_before = loop_seconds()
    if traced:
        tracer = Tracer()
        instrument_simulator(sim, tracer)
        # The verdict builds its Schedule through the runtime module's
        # global name, so that is where its replay is timed.
        schedule = runtime.Schedule
        runtime.Schedule = tracer.wrap("verdict.replay", schedule)
        try:
            start = perf_counter()
            result = sim.run()
            wall = perf_counter() - start
        finally:
            runtime.Schedule = schedule
    else:
        start = perf_counter()
        result = sim.run()
        wall = perf_counter() - start
    rep = Repetition(
        sim, result, wall, to_reference(wall, loop_before, loop_seconds()),
        tracer, check_simulation(wl, sim, result) if observe else [],
    )
    if traced:
        rep.errors += accounting_errors(rep)
    return rep


def accounting_errors(rep: Repetition) -> list[str]:
    """Ways one traced run's spans fail to account for its wall time.

    Every event the run loop dispatched must have passed through a
    handler span, and the spans' self times must not add up to more
    than the wall time.
    """
    errors = []
    dispatched = rep.sim._events_processed
    traced = rep.tracer.root_events()
    if traced != dispatched:
        errors.append(
            f"traced run: {traced} handler spans for {dispatched} "
            f"dispatched events"
        )
    residual = rep.wall - rep.tracer.total_busy()
    if residual < 0:
        errors.append(
            f"traced run: span self times exceed wall time by "
            f"{-residual:.6f} s"
        )
    return errors


def behaviour_record(rep: Repetition) -> str:
    from workloads import behaviour_digest

    sim, result, tracer = rep.sim, rep.result, rep.tracer
    parts = [f"digest={behaviour_digest(result)}",
             f"events={sim._events_processed}"]
    parts += [
        f"events.{kind}={count}"
        for kind, count in sorted(tracer.events().items())
    ]
    parts += [f"{label}={getattr(result, field)}"
              for label, field in RECORD_FIELDS]
    return " ".join(parts)


def layer_metrics(rep: Repetition) -> dict[str, float]:
    """Per-layer figures of one traced repetition, in host time."""
    result, tracer, wall = rep.result, rep.tracer, rep.wall
    commits = result.committed
    events = tracer.events()
    busy = tracer.event_busy()
    by_layer_events: dict[str, int] = {}
    by_layer_busy: dict[str, float] = {}
    for kind, count in events.items():
        layer = layer_of(kind)
        by_layer_events[layer] = by_layer_events.get(layer, 0) + count
        by_layer_busy[layer] = by_layer_busy.get(layer, 0.0) + busy[kind]

    def per_commit(count: float) -> float:
        return count / commits

    def span_busy(name: str) -> float:
        return tracer.busy.get(name, 0.0)

    def span_us(name: str) -> float:
        calls = tracer.calls.get(name, 0)
        return span_busy(name) / calls * 1e6 if calls else 0.0

    runtime_events = by_layer_events.get("runtime", 0)
    runtime_busy = by_layer_busy.get("runtime", 0.0)
    out = {
        "workload.generate_us_per_txn": span_us("workload.generate"),
        "workload.share": span_busy("workload.generate") / wall,
        "runtime.events_per_commit": per_commit(sum(events.values())),
        "runtime.busy_s": runtime_busy,
        "runtime.us_per_event": (
            runtime_busy / runtime_events * 1e6 if runtime_events else 0.0
        ),
        "runtime.add_txn_us": span_us("runtime.add_txn"),
        "runtime.loop_residual_s": wall - tracer.total_busy(),
        "runtime.useful_frac": commits / (commits + result.aborts),
        "policies.aborts_per_commit": per_commit(result.aborts),
        "locks.waits_per_commit": per_commit(result.waits),
        "commit.messages_per_commit": per_commit(result.commit_messages),
        "network.delivered_per_sent": (
            result.net_delivered / result.net_sent if result.net_sent else 0.0
        ),
        "durability.flushes_per_commit": per_commit(result.log_forces),
        "observe.finalize_s": span_busy("observe.finalize"),
        "verdict.replay_s": span_busy("verdict.replay"),
        "verdict.check_s": span_busy("verdict.check"),
    }
    for kind in CORE_KINDS:
        out[f"runtime.events.{kind}_per_commit"] = per_commit(
            events.get(kind, 0)
        )
    for layer in ("commit", "network", "replication"):
        out[f"{layer}.events_per_commit"] = per_commit(
            by_layer_events.get(layer, 0)
        )
    for layer in ("commit", "network", "durability", "failures",
                  "replication"):
        out[f"{layer}.busy_s"] = by_layer_busy.get(layer, 0.0)
    return out


def accounting_line(rep: Repetition) -> str:
    """How one traced run's wall time splits over its spans."""
    tracer, wall = rep.tracer, rep.wall
    busy = tracer.busy
    handlers = sum(tracer.event_busy().values())
    verdict = busy.get("verdict.replay", 0.0) + busy.get("verdict.check", 0.0)
    others = {
        "generate": busy.get("workload.generate", 0.0),
        "add_txn": busy.get("runtime.add_txn", 0.0),
        "verdict": verdict,
        "observe_finalize": busy.get("observe.finalize", 0.0),
    }
    residual = wall - tracer.total_busy()
    parts = " + ".join(f"{k} {v:.4f}" for k, v in others.items())
    return (
        f"accounting wall {wall:.4f} s = handlers {handlers:.4f} + "
        f"{parts} + loop_residual {residual:.4f}"
    )


def measure_simulator(name: str, seed: int, seconds: float, trace: bool,
                      m: Measurement) -> None:
    from workloads import SIM_WORKLOADS, behaviour_digest

    wl = SIM_WORKLOADS[name]
    if not trace:
        setup, probes = median_setup_seconds(name, seed)
    walls: list[float] = []
    rates: list[float] = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    layers: list[dict[str, float]] = []
    digests: set[str] = set()
    deadline = perf_counter() + seconds
    while True:
        rep = run_once(wl, seed)
        m.errors += rep.errors
        m.attempted += rep.result.injected
        m.failed += rep.result.injected - rep.result.committed
        digests.add(behaviour_digest(rep.result))
        walls.append(rep.scaled)
        rates.append(rep.result.committed / rep.scaled)
        if trace:
            traced = run_once(wl, seed, traced=True)
            m.errors += traced.errors
            digests.add(behaviour_digest(traced.result))
            traced_walls.append(traced.scaled)
            layers.append(layer_metrics(traced))
            if wl.check_attribution:
                # The same run without observers: the observers' cost.
                plain_walls.append(run_once(wl, seed, observe=False).scaled)
        # Drop this repetition's runs before the next ones are built,
        # so peak memory is that of one run, not two.
        rep = traced = None
        if perf_counter() >= deadline:
            break
    if not trace:
        rss = peak_rss_mb()
    # One more traced repetition, for the event counts of the behaviour
    # record and the wall-time accounting.
    traced = run_once(wl, seed, traced=True)
    m.errors += traced.errors
    digests.add(behaviour_digest(traced.result))
    if len(digests) != 1:
        m.errors.append(
            f"behaviour differs between repetitions of one seed: "
            f"{sorted(digests)}"
        )
    m.record = behaviour_record(traced)
    n = len(walls)
    if not trace:
        m.put("throughput_per_s", statistics.median(rates), "1/s", n)
        m.put("latency_p50_ms", quantile(walls, 50) * 1e3, "ms", n)
        m.put("latency_p90_ms", quantile(walls, 90) * 1e3, "ms", n)
        m.put("setup_s", setup, "s", probes)
        m.put("peak_rss_mb", rss, "MB", 1)
        return
    m.accounting = accounting_line(traced)
    for metric, unit in PER_LAYER:
        values = [row[metric] for row in layers if metric in row]
        if values:
            m.put(metric, statistics.median(values), unit, len(values))
    m.put("bench.trace_overhead_frac",
          statistics.median(traced_walls) / statistics.median(walls) - 1.0,
          "ratio", len(traced_walls))
    if plain_walls:
        m.put("observe.overhead_frac",
              statistics.median(walls) / statistics.median(plain_walls) - 1.0,
              "ratio", len(plain_walls))


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------


#: Small systems certified between two timings of the speed loop;
#: large ones are bracketed one by one.
CERTIFY_CHUNK = 20


def certify_pass(batch, find_deadlock, find_deadlock_prefix, audit_system):
    """Certify every system of ``batch`` once.

    Returns per-system latencies scaled to the reference speed, the
    verdict vector (for the behaviour record and the oracle check;
    None for a system whose search ran out of budget), correctness
    errors and the number of searches that ran out of budget.
    """
    from repro.analysis.exhaustive import SearchBudgetExceeded

    small, large = batch.small, batch.large
    chunks = [
        range(start, min(start + CERTIFY_CHUNK, len(small)))
        for start in range(0, len(small), CERTIFY_CHUNK)
    ] + [range(len(small) + i, len(small) + i + 1) for i in range(len(large))]
    systems = small + large
    latencies = []
    verdicts = []
    errors = []
    budget_exceeded = 0
    loop_before = loop_seconds()
    for chunk in chunks:
        raw = []
        for index in chunk:
            system = systems[index]
            start = perf_counter()
            if index < len(small):
                try:
                    witness = find_deadlock(system)
                    prefix = find_deadlock_prefix(system)
                except SearchBudgetExceeded:
                    budget_exceeded += 1
                    verdicts.append(None)
                    continue
                report = audit_system(system)
                raw.append(perf_counter() - start)
                verdicts.append((witness is None, report.ok))
                if (witness is None) != (prefix is None):
                    errors.append(
                        f"small system {index}: Theorem 1 disagrees with "
                        f"the exhaustive search"
                    )
            else:
                report = audit_system(system)
                raw.append(perf_counter() - start)
                verdicts.append((None, report.ok))
                if not report.ok:
                    errors.append(
                        f"large system {index - len(small)}: an ordered "
                        f"2PL system failed the Theorem 4 audit"
                    )
        loop_after = loop_seconds()
        latencies += [to_reference(t, loop_before, loop_after) for t in raw]
        loop_before = loop_after
    return latencies, verdicts, errors, budget_exceeded


def measure_certify(seed: int, seconds: float, trace: bool,
                    m: Measurement) -> None:
    import repro.analysis.exhaustive as exhaustive
    import repro.analysis.reporting as reporting
    import repro.analysis.theorem1 as theorem1
    from repro.analysis.exhaustive import is_safe_and_deadlock_free
    from workloads import CertifyBatch

    if not trace:
        setup, probes = median_setup_seconds("certify", seed)
    batch = CertifyBatch.generate(seed)
    plain = (exhaustive.find_deadlock, theorem1.find_deadlock_prefix,
             reporting.audit_system)
    latencies: list[float] = []
    pass_walls: list[float] = []
    rates: list[float] = []
    traced_walls: list[float] = []
    tracers: list[Tracer] = []
    verdict_sets = set()
    verdicts = []
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        lat, verdicts, errors, exceeded = certify_pass(batch, *plain)
        m.errors += errors
        m.attempted += len(batch.small) + len(batch.large)
        m.failed += exceeded
        latencies += lat
        pass_walls.append(sum(lat))
        rates.append(len(lat) / sum(lat))
        verdict_sets.add(tuple(verdicts))
        if trace:
            tracer = Tracer()
            gc.collect()
            lat, traced_verdicts, errors, _ = certify_pass(
                batch,
                tracer.wrap("analysis.exhaustive", plain[0]),
                tracer.wrap("analysis.theorem1", plain[1]),
                tracer.wrap("analysis.audit", plain[2]),
            )
            m.errors += errors
            verdict_sets.add(tuple(traced_verdicts))
            traced_walls.append(sum(lat))
            tracers.append(tracer)
        if perf_counter() >= deadline:
            break
    if not trace:
        rss = peak_rss_mb()
    if len(verdict_sets) != 1:
        m.errors.append("verdicts differ between passes over one batch")
    # The oracle runs once, outside the timed passes.
    for index, (system, verdict) in enumerate(zip(batch.small, verdicts)):
        if verdict is not None and verdict[1] != bool(
            is_safe_and_deadlock_free(system)
        ):
            m.errors.append(
                f"small system {index}: the Theorem 4 audit disagrees "
                f"with the exhaustive safety oracle"
            )
    settled = [v for v in verdicts if v is not None]
    digest = hashlib.md5(repr(verdicts).encode()).hexdigest()[:12]
    m.record = (
        f"digest={digest} small={len(batch.small)} "
        f"large={len(batch.large)} "
        f"deadlock_free={sum(df is True for df, _ in settled)} "
        f"safe_and_deadlock_free={sum(ok for _, ok in settled)}"
    )
    n = len(latencies)
    if not trace:
        m.put("throughput_per_s", statistics.median(rates), "1/s",
              len(rates))
        m.put("latency_p50_ms", quantile(latencies, 50) * 1e3, "ms", n)
        m.put("latency_p90_ms", quantile(latencies, 90) * 1e3, "ms", n)
        m.put("setup_s", setup, "s", probes)
        m.put("peak_rss_mb", rss, "MB", 1)
        return
    for metric, span in (("analysis.audit_ms", "analysis.audit"),
                         ("analysis.exhaustive_ms", "analysis.exhaustive"),
                         ("analysis.theorem1_ms", "analysis.theorem1")):
        m.put(metric, statistics.median(
            t.busy[span] / t.calls[span] * 1e3 for t in tracers
        ), "ms", len(tracers))
    m.put("bench.trace_overhead_frac",
          statistics.median(traced_walls) / statistics.median(pass_walls)
          - 1.0, "ratio", len(traced_walls))


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    from workloads import CERTIFY

    m = Measurement(name)
    if name == CERTIFY:
        measure_certify(seed, seconds, trace, m)
    else:
        measure_simulator(name, seed, seconds, trace, m)
    # A layer the workload leaves idle reports zero work.
    wanted = PER_LAYER if trace else END_TO_END
    for metric, unit in wanted:
        if metric not in m.metrics:
            m.put(metric, 0.0, unit, 0)
    return m


def report(m: Measurement, trace: bool) -> None:
    wanted = PER_LAYER if trace else END_TO_END
    for metric, _ in wanted:
        value, unit, samples = m.metrics[metric]
        print(f"metric {m.name} {metric} {value!r} {unit} n={samples}")
    print(f"attempted {m.name} {m.attempted} failed {m.failed} "
          f"fail_ratio {m.failed / m.attempted!r}")
    if m.accounting:
        print(m.accounting)
    print(f"behaviour {m.name} {m.record}")
    for error in m.errors:
        print(f"CHECK FAILED {m.name}: {error}", file=sys.stderr)
    print(f"check {m.name} {'ok' if not m.errors else 'FAILED'}")


def run_each_workload(names: list[str], args) -> int:
    """Run every workload in a child process of its own, one after
    another, and print their results as one, with metric names
    prefixed by the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(
                f"perfbench: workload {name} ended without a result "
                f"(exit code {done.returncode})"
            )
        print("\n".join(lines[:-1]))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOAD_NAMES

    if args.workload == "all":
        return run_each_workload(list(WORKLOAD_NAMES), args)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOAD_NAMES)} or all")
    trace = bool(args.trace)
    fp = machine_fingerprint()
    print(f"perfbench seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine cpu={fp['cpu']!r} nproc={fp['nproc']} "
          f"python={fp['python']}")
    m = measure(args.workload, args.seed, args.seconds, trace)
    report(m, trace)
    print(json.dumps({
        "correct": not m.errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            metric: {"value": m.metrics[metric][0], "unit": unit}
            for metric, unit in (PER_LAYER if trace else END_TO_END)
        },
    }))
    return 0 if not m.errors else 1


if __name__ == "__main__":
    sys.exit(main())
