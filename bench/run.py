"""The ko7 benchmark: two workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload sweep|serial|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every operation runs in a fresh process, one at a time, from a single
driver process (a closed loop with one client), against the `ko7`
package in this checkout's `src/`.  Each operation's exit code and output
are checked; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones, with `--trace 1` the per-layer ones from a traced
run.  bench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
SPANS = ROOT / ".bench_spans"
DEFAULT_SEED = 0
SETUP_PROBES = 10  # per block; a run has two

# Parameters of each workload.  TINY runs each in seconds, for the
# benchmark's own smoke test; `check nogo` needs size 6 to find every
# catalog family's counterexample.
PARAMS = {
    "sweep": {"max_size": 9, "budget": 200, "workers": 2},
    "serial": {"count": 1000, "sizes": (20, 60), "chains": (50, 300), "chain_share": 0.03,
               "lpo": 6, "nogo": 8, "stress": 8, "kbo": 4},
}
TINY = {
    "sweep": {"max_size": 5, "budget": 200, "workers": 2},
    "serial": {"count": 12, "sizes": (3, 5), "chains": (3, 5), "chain_share": 0.1,
               "lpo": 4, "nogo": 6, "stress": 5, "kbo": 1},
}

# Exact counts at the default sweep size, checked for every seed.
SWEEP_COUNTS = {9: {"decrease": 23769, "unique-nf": 68127, "local-join": 23890}}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed for `serial` only.  BENCHMARK.json lists the metrics that every
# workload reports, so these are not listed there.
TERM_LATENCY = {"term_p50_ms": "ms", "term_p99_ms": "ms"}

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "terms.enumerate_s": ("terms.terms_of_size", "terms.enumerate_terms", "terms.count_terms"),
    "terms.parse_s": ("terms.parse",),
    "terms.render_s": ("terms.render",),
    "rewrite.root_steps_s": (
        "rewrite.root_steps_safe", "rewrite.root_steps_full",
        "rewrite.steps:safe-root", "rewrite.steps:full-root",
    ),
    "rewrite.ctx_steps_s": (
        "rewrite.ctx_steps_safe", "rewrite.ctx_steps_full",
        "rewrite.steps:safe-ctx", "rewrite.steps:full-ctx",
    ),
    "measure.measure3_s": ("measure.measure3", "measure.kappa_m"),
    "normalize.full_s": ("normalize.normalize_full",),
    "normalize.safe_s": ("normalize.normalize_safe",),
    "confluence.joinable_s": ("confluence.joinable",),
    "confluence.normal_forms_s": ("confluence.guarded_root_normal_forms",),
    "nogo.lpo_s": ("nogo.lpo_greater", "nogo.lpo_boundary_report"),
    "nogo.hunt_s": ("nogo.find_violation", "nogo.duplication_stress"),
    "nogo.kbo_s": ("nogo.kbo_search",),
}
LAYERS = ("terms", "rewrite", "measure", "normalize", "confluence", "nogo", "cli")
COUNTERS = (
    "terms.enumerated", "rewrite.witnesses", "measure.measure3_calls",
    "measure.instances_checked", "normalize.full_steps", "confluence.join_expanded",
    "nogo.instances_scanned",
)
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTERS},
    "terms.nodes_parsed_per_s": "1/s",
    "confluence.join_ratio": "ratio",
    "workers.speedup_x": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


@dataclass
class Op:
    """One operation: a fresh process whose output is checked."""

    key: str  # names the operation in expected.json and in reports
    argv: list[str]  # arguments after the interpreter
    check: Callable[[str], int]  # stdout -> number of failed sub-operations
    size: int = 1  # sub-operations it counts for (terms in a batch)
    stdin: str = ""
    workers: int | None = None  # KO7_WORKERS, set only for sweep checks
    timed: bool = False  # stdout lines are "<latency ns>\t<output>"


@dataclass
class Done:
    op: Op
    code: int
    stdout: str
    wall: float
    rss_mb: float
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)


class Run:
    """Runs operations and counts their failures."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env.pop("KO7_WORKERS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, op: Op, workers: int | None = None, spans: Path | None = None, cpu: int | None = None) -> Done:
        """Run op in a fresh process; `workers` overrides op.workers,
        `spans` runs it traced through child.py, and `cpu` pins it to
        that core."""
        env = dict(self.env)
        workers = op.workers if workers is None else workers
        if workers is not None:
            env["KO7_WORKERS"] = str(workers)
        argv = op.argv
        if spans is not None:
            if argv[:2] == ["-m", "ko7.cli"]:
                argv = [str(BENCH / "child.py"), "cli"] + argv[2:]
            argv = [argv[0], "--spans", str(spans)] + argv[1:]
        with tempfile.TemporaryFile("w+", dir=ROOT) as stdin, tempfile.TemporaryFile("w+", dir=ROOT) as stderr:
            stdin.write(op.stdin)
            stdin.seek(0)
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, stdin=stdin, stdout=subprocess.PIPE,
                stderr=stderr, env=env, cwd=ROOT, text=True,
                preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
            )
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            stderr.seek(0)
            errors = stderr.read()
        done = Done(op, proc.returncode, stdout, wall, usage.ru_maxrss / 1024)
        done.failed = self._failures(done)
        if done.failed and errors:
            print(f"{op.key}: exit {done.code}\n{errors[-2000:]}", file=sys.stderr)
        self.attempted += op.size
        self.failed += done.failed
        return done

    def _failures(self, done: Done) -> int:
        op = done.op
        stdout = done.stdout
        try:
            if op.timed:
                rows = [line.split("\t", 1) for line in stdout.splitlines()]
                done.latencies_ms = [int(ns) / 1e6 for ns, _ in rows]
                stdout = "".join(rest + "\n" for _, rest in rows)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            want = self.expected.get(op.key)
            if done.code != 0 or (want and want != {"exit": done.code, "stdout_sha256": digest}):
                return op.size
            return op.check(stdout)
        except (LookupError, ValueError):  # output too malformed to check
            return op.size


# ---------------------------------------------------------------------------
# Output checks that hold for every seed.


def _lines(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _passes(stdout: str) -> bool:
    lines = stdout.splitlines()
    return bool(lines) and lines[-1].startswith("PASS")


def check_pass(stdout: str) -> int:
    return 0 if _passes(stdout) else 1


def check_sweep(kind: str, max_size: int):
    known = SWEEP_COUNTS.get(max_size, {})

    def check(stdout: str) -> int:
        fields = _lines(stdout)
        ok = _passes(stdout)
        if kind == "decrease":
            ok = ok and fields["violations"] == "0"
            ok = ok and (kind not in known or fields["checked"].split()[0] == str(known[kind]))
        elif kind == "unique-nf":
            ok = ok and fields["violations"] == "0"
            ok = ok and (kind not in known or fields["terms checked"].split()[0] == str(known[kind]))
        elif kind == "local-join":
            forks = fields["forks checked"].split()[0]
            ok = ok and fields["joined"] == forks and fields["inconclusive"] == "0"
            ok = ok and (kind not in known or forks == str(known[kind]))
        return 0 if ok else 1

    return check


def check_kbo(bound: int):
    def check(stdout: str) -> int:
        fields = _lines(stdout)
        ok = fields["assignments checked"] == str((bound + 1) ** 7)
        return 0 if ok and fields["orienting assignments"] == "0" and _passes(stdout) else 1

    return check


def check_terms(count: int):
    """Every term's full normalization ended in a normal form that has no
    full-context successor; a missing line counts as a failed term."""

    def check(stdout: str) -> int:
        results = [line.split("\t") for line in stdout.splitlines()]
        return count - sum(1 for r in results if len(r) == 3 and r[:2] == ["1", "0"])

    return check


# ---------------------------------------------------------------------------
# Workloads.  Each returns its operations for one pass, in seeded order.


def sweep_ops(seed: int, p: dict) -> list[Op]:
    n = p["max_size"]
    commands = [
        ("decrease", []),
        ("unique-nf", []),
        ("coverage", []),
        ("local-join", ["--relation", "safe-ctx", "--budget", str(p["budget"])]),
    ]
    ops = [
        Op(
            f"ko7 check {kind} --max-size {n} {' '.join(extra)}".strip(),
            ["-m", "ko7.cli", "check", kind, "--max-size", str(n)] + extra,
            check_sweep(kind, n),
            workers=p["workers"],
        )
        for kind, extra in commands
    ]
    random.Random(seed).shuffle(ops)
    return ops


def terms_ops(seed: int, p: dict) -> list[Op]:
    batch = gen.term_batch(seed, p["count"], p["sizes"], p["chain_share"], p["chains"])
    key = f"terms seed={seed} count={p['count']} sizes={p['sizes']} chains={p['chains']} share={p['chain_share']}"
    return [Op(key, [str(BENCH / "child.py"), "terms"], check_terms(len(batch)), len(batch), "\n".join(batch), timed=True)]


def orient_ops(seed: int, p: dict) -> list[Op]:
    ops = [
        Op(f"ko7 check {kind} --max-size {p[kind]}", ["-m", "ko7.cli", "check", kind, "--max-size", str(p[kind])], check_pass)
        for kind in ("lpo", "nogo", "stress")
    ]
    ops.append(Op(f"kbo_search({p['kbo']})", [str(BENCH / "child.py"), "kbo", str(p["kbo"])], check_kbo(p["kbo"])))
    return ops


def serial_ops(seed: int, p: dict) -> list[Op]:
    """The term batch and the orientation checks: no pool."""
    ops = terms_ops(seed, p) + orient_ops(seed, p)
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {"sweep": sweep_ops, "serial": serial_ops}

SETUP_OP = Op("ko7 parse void", ["-m", "ko7.cli", "parse", "void"], lambda out: int(out != "void\n"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(run: Run, ops: list[Op], seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off.  A block of set-up probes
    opens and closes the run; between them `ops` run round robin, at
    least once each, until the next one and the closing block would
    overrun `seconds`.  Every timing is a median over repeats.

    The cores of a shared host differ in speed for minutes at a time, and
    a child starts on its parent's core, so every single-process
    operation alternates its repeats over the cores this process may use;
    pool operations use them all anyway."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    run.run(SETUP_OP)  # warm-up: byte-compiles the package once
    setups = [run.run(SETUP_OP, cpu=cpus[k % len(cpus)]).wall for k in range(SETUP_PROBES)]
    closing = sum(setups)
    done: list[list[Done]] = [[] for _ in ops]
    for i in itertools.cycle(range(len(ops))):
        if done[i] and time.perf_counter() - start + statistics.median(d.wall for d in done[i]) + closing > seconds:
            break
        done[i].append(run.run(ops[i], cpu=None if ops[i].workers else cpus[len(done[i]) % len(cpus)]))
    setups += [run.run(SETUP_OP, cpu=cpus[k % len(cpus)]).wall for k in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(d.wall for d in repeats) for repeats in done),
        "peak_rss_mb": max(d.rss_mb for repeats in done for d in repeats),
    }
    # a term's latency is its median over the batch's repeats
    latencies = [
        statistics.median(column)
        for repeats in done
        if repeats[0].op.timed
        for column in zip(*(d.latencies_ms for d in repeats))
    ]
    if latencies:
        metrics["term_p50_ms"] = statistics.median(latencies)
        metrics["term_p99_ms"] = percentile(latencies, 0.99)
    samples = {
        "setup_probes": len(setups),
        "walls_s": {op.key: [d.wall for d in repeats] for op, repeats in zip(ops, done)},
        "term_latencies": len(latencies),
    }
    return metrics, samples


def traced(run: Run, workload: str, ops: list[Op]) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced serial pass, then the same pass
    traced; for `sweep` also the 2-worker times of the pool sweeps.  Each
    pass starts with a probe, the tiny operations of every workload, so
    that every layer runs and no per-layer time reads 0."""
    probe = [op for name, make in WORKLOADS.items() for op in make(DEFAULT_SEED, TINY[name])]
    ops = probe + ops
    SPANS.mkdir(exist_ok=True)
    untraced = [run.run(op, workers=1 if op.workers else None) for op in ops]
    spans = [SPANS / f"{workload}-{i}.spans" for i in range(len(ops))]
    for path in spans:
        path.unlink(missing_ok=True)
    traced_walls = [run.run(op, workers=1 if op.workers else None, spans=path).wall for op, path in zip(ops, spans)]

    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    total_spans = 0
    for path in spans:
        if not path.exists():
            continue
        header, columns = tracer.load(str(path))
        total_spans += header["spans"]
        for name, t in tracer.self_times(header, columns).items():
            own[name] = own.get(name, 0.0) + t
        for name, v in header["counters"].items():
            counters[name] = counters.get(name, 0) + v

    metrics = {name: sum(own.get(s, 0.0) for s in names) for name, names in SELF_TIME.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for s, t in own.items() if s.startswith(layer + "."))
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    parse_s = metrics["terms.parse_s"]
    metrics["terms.nodes_parsed_per_s"] = counters.get("terms.nodes_parsed", 0) / parse_s if parse_s else 0.0
    attempted = counters.get("confluence.joins_attempted", 0)
    metrics["confluence.join_ratio"] = counters.get("confluence.joined", 0) / attempted if attempted else 0.0
    pooled = [d for d in untraced[len(probe):] if d.op.workers and d.op.argv[3] in ("decrease", "unique-nf")]
    if pooled:
        parallel = [run.run(d.op).wall for d in pooled]
        metrics["workers.speedup_x"] = sum(d.wall for d in pooled) / sum(parallel)
    else:
        metrics["workers.speedup_x"] = 0.0
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(d.wall for d in untraced)
    metrics["trace.spans"] = total_spans
    samples = {"untraced_ops": len(untraced), "traced_ops": len(traced_walls), "probe_ops": len(probe),
               "pool_ops": 2 * len(pooled)}
    return metrics, samples


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, params: dict | None = None,
                 expected: dict | None = None) -> dict:
    """Run one workload and return its result record."""
    params = PARAMS[workload] if params is None else params
    run = Run(json.loads(EXPECTED.read_text()) if expected is None else expected)
    ops = WORKLOADS[workload](seed, params)
    if trace:
        metrics, samples = traced(run, workload, ops)
        units = PER_LAYER
    else:
        metrics, samples = measure(run, ops, seconds)
        units = END_TO_END
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": params,
        "samples": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }
    for op in ops:
        if op.timed:
            meta["inputs"] = gen.describe(op.stdin.splitlines())
    return {
        "meta": meta,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_ratio": run.failed / run.attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "extra": {name: {"value": metrics[name], "unit": unit} for name, unit in TERM_LATENCY.items() if name in metrics},
    }


def report(result: dict) -> None:
    print("record " + json.dumps(result, sort_keys=True))
    name = result["meta"]["workload"]
    for metric, m in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:7} {metric:28} {m['value']:14.6g} {m['unit']}")
    print(f"{name:7} {'error_ratio':28} {result['error_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ko7" / "__init__.py").is_file():
        print(f"error: no ko7 package under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for result in results:
        report(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
