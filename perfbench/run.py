#!/usr/bin/env python3
"""dpmean benchmark: one workload per run, outputs checked, metrics printed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_fig2c --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics: self time and calls per layer from spans, trace overhead, and
stand-alone timings of each layer's public functions.  Every metric is
printed as ``metric <name> <value> <unit>``; a ``detail`` line carries the
rest of the record (quartiles, pass counts, machine facts, check failures);
the last line is the JSON result.  ``all`` runs each workload in its own
child process, one after the other.

The package is imported from ``src/`` of the same checkout and nowhere
else; without it the run stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy

import layers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
PATH_LAYERS = ("noise", "mechanisms", "harness", "cli")  # layers a workload pass can call


def load_package() -> SimpleNamespace:
    if not (SRC / "dpmean" / "__init__.py").is_file():
        print(f"error: no dpmean package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dpmean
    from dpmean import bounds, cli, geometry, harness, mechanisms, noise

    if Path(dpmean.__file__).resolve().parent != (SRC / "dpmean").resolve():
        print(f"error: imported dpmean from {dpmean.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(
        noise=noise, mechanisms=mechanisms, harness=harness, cli=cli,
        geometry=geometry, bounds=bounds, Cursor=noise.Cursor,
    )


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing the package, as a user
    running ``dpmean`` pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dpmean.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def timed_setup(wl) -> float:
    """One set-up: a cold import plus generating the workload's inputs."""
    t0 = time.perf_counter()
    wl.setup()
    return cold_import_s() + time.perf_counter() - t0


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def machine_facts() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "dpmean").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
        "git_dirty": bool(status) if status is not None else None,
        "src_sha256": src_hash.hexdigest(),
    }


def reference_work() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of work that does not touch the
    package: an integer loop, a float list sort, and a loop of small numpy
    calls (re-keying a Philox generator and drawing two scalars, the kind of
    call the per-trial path makes).  Its time tracks how fast this machine
    runs such code, so pass times divided by it ("ref" units) stay steady
    when the machine's speed drifts under other tenants' load, while a
    faster program still lowers them."""
    c0, t0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    xs = [i * 0.37 % 1.0 for i in range(300_000)]
    xs.sort()
    sum(tuple(xs))
    gen = numpy.random.Generator(numpy.random.Philox(key=numpy.array([1, 2], dtype=numpy.uint64)))
    bitgen = gen.bit_generator
    state = bitgen.state
    x = 0.0
    for i in range(30_000):
        state["state"]["key"][0] = i
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        bitgen.state = state
        x += max(-50.0, min(50.0, math.log(gen.random()) - math.log(gen.random())))
    return time.perf_counter() - t0, time.process_time() - c0


def per_ref(xs: list[float], refs: list[float]) -> list[float]:
    """Each pass in ref units: divided by the mean of the reference work
    run just before it and just after it."""
    return [x / ((refs[i] + refs[i + 1]) / 2) for i, x in enumerate(xs)]


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def tail(xs: list[float]) -> dict | None:
    """The highest percentile with at least ten passes beyond it."""
    if len(xs) < 11:
        return None
    return {"percentile": int(100 * (len(xs) - 10) / len(xs)), "value": sorted(xs)[len(xs) - 11]}


class Runner:
    def __init__(self, dp, workload, seconds: float):
        self.dp = dp
        self.wl = workload
        self.seconds = seconds
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def one_pass(self, index: int) -> tuple[float, float]:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        result = self.wl.run_pass(index)
        t1, c1 = time.perf_counter(), time.process_time()
        self.attempted += 1
        try:
            problems = self.wl.check(index, result)
        except (KeyError, IndexError, ValueError, OSError, TypeError) as exc:
            problems = [f"pass {index}: output unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return t1 - t0, c1 - c0

    def passes(self):
        """Yield pass indices: a warm-up pair member first (index 0), then
        until ``seconds`` have passed, always ending on a complete pair."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < 4 or index % 2 or time.perf_counter() < deadline:
            yield index
            index += 1

    def untraced(self) -> dict:
        """Passes alternating with the reference work.  Peak RSS is read
        before the warm-up pass (the floor that set-up left) and after it,
        before the reference work has run, so it is the program's and not
        the reference's."""
        walls, cpus = [], []
        indices = self.passes()
        setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.one_pass(next(indices))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs = [reference_work()]
        for index in indices:
            wall, cpu = self.one_pass(index)
            walls.append(wall)
            cpus.append(cpu)
            refs.append(reference_work())
        return {"walls": walls, "cpus": cpus, "ref_walls": [r[0] for r in refs],
                "ref_cpus": [r[1] for r in refs], "setup_mb": setup_mb, "peak_mb": peak_mb}

    def traced(self, tracer: tracing.Tracer) -> dict:
        """Plain and traced passes alternating, then one counting pass: a
        fresh pair's first pass, checked like any other, whose uniform and
        clip counts are exact."""
        plain, traced, per_pass = [], [], []
        for index in self.passes():
            if index % 2 == 0:
                wall, _ = self.one_pass(index)
                if index > 0:
                    plain.append(wall)
                continue
            before = tracer.snapshot()
            with tracing.installed(tracer, self.dp):
                wall, _ = self.one_pass(index)
            after = tracer.snapshot()
            traced.append(wall)
            per_pass.append({"wall": wall, "root_s": after["root_s"] - before["root_s"],
                             "layers": tracer.layer_totals(before, after), "cost": tracing.calibrate()})
        with tracing.counting(self.dp) as counts:
            self.one_pass(index + 1)
        return {"plain": plain, "traced": traced, "per_pass": per_pass, "counts": counts}


def end_to_end(runner: Runner, m: dict, setup: list[float]) -> tuple[dict, dict, dict]:
    """Bounded metrics (in the JSON result) and the raw wall-clock figures
    (printed, not bounded: on a shared machine they swing with its speed).
    "ref" units are the median over passes of each pass divided by the
    reference work around it (``per_ref``)."""
    items = runner.wl.items()
    wall = statistics.median(m["walls"])
    cpu = statistics.median(m["cpus"])
    wall_ref = statistics.median(per_ref(m["walls"], m["ref_walls"]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall_ref, "ref"),
        "items_per_ref": (items / wall_ref, "1/ref"),
        "cpu_ref": (statistics.median(per_ref(m["cpus"], m["ref_cpus"])), "ref"),
        "peak_rss_mb": (m["peak_mb"], "MB"),
    }
    raw = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "cpu_s": (cpu, "s"),
    }
    detail = {
        "passes": len(m["walls"]),
        "items_per_pass": items,
        "wall_s_quartiles": quartiles(m["walls"]),
        "wall_s_tail": tail(m["walls"]),
        "cpu_s_quartiles": quartiles(m["cpus"]),
        "setup_s_samples": setup,
        "setup_rss_mb": m["setup_mb"],
        "walls": m["walls"],
        "cpus": m["cpus"],
        "reference_walls": m["ref_walls"],
        "reference_cpus": m["ref_cpus"],
    }
    return metrics, raw, detail


def per_layer(m: dict, micro: dict) -> tuple[dict, dict]:
    """Per-layer figures from the traced passes, with the tracer's own time
    taken out.  Right after each traced pass, ``tracing.calibrate`` measures
    what one span costs; per span, its ``inner_s`` comes off the callee's
    self time, its ``outer_s`` off the caller's (off benchmark glue for a
    root span), and both off the traced wall time.  Shares are of that
    corrected wall time, which estimates the plain pass;
    ``trace.residual_frac`` says how far it is from the plain pass."""
    per_pass = m["per_pass"]
    net = []
    for p in per_pass:
        c, layers_ = p["cost"], p["layers"]
        spans = sum(t["calls"] for t in layers_.values())
        roots = spans - sum(t["children"] for t in layers_.values())
        net.append({
            "wall": p["wall"] - spans * c["total_s"],
            "glue": p["wall"] - p["root_s"] - roots * c["outer_s"],
            "self": {x: t["self_s"] - t["calls"] * c["inner_s"] - t["children"] * c["outer_s"]
                     for x, t in layers_.items()},
            "spans": spans,
        })
    wall_net = sum(p["wall"] for p in net)
    self_net = {x: sum(p["self"][x] for p in net) for x in PATH_LAYERS}
    metrics = {}
    for layer in PATH_LAYERS:
        metrics[f"{layer}.self_frac"] = (self_net[layer] / wall_net, "frac")
        metrics[f"{layer}.calls"] = (statistics.median(p["layers"][layer]["calls"] for p in per_pass), "count")
    counts = m["counts"]
    clip_calls, clip_hits = counts["mechanisms.clip"], counts["mechanisms.clip.hit"]
    metrics["noise.uniforms_drawn"] = (counts["noise.uniforms"], "count")
    metrics["mechanisms.clipped_frac"] = (clip_hits / clip_calls if clip_calls else 0.0, "frac")
    plain = statistics.median(m["plain"])
    span_cost = statistics.median(p["cost"]["total_s"] for p in per_pass)
    metrics["trace_overhead_frac"] = (statistics.median(m["traced"]) / plain - 1.0, "frac")
    metrics["trace.residual_frac"] = (statistics.median(p["wall"] for p in net) / plain - 1.0, "frac")
    metrics["trace.span_cost_us"] = (1e6 * span_cost, "us")
    metrics["trace.unattributed_frac"] = (sum(p["glue"] for p in net) / wall_net, "frac")
    metrics.update(micro)
    detail = {
        "traced_passes": len(per_pass),
        "plain_passes": len(m["plain"]),
        "spans_per_pass": statistics.median(p["spans"] for p in net),
        "span_cost_s": [p["cost"] for p in per_pass],
        "traced_wall_s": sum(p["wall"] for p in per_pass),
        "traced_wall_net_s": wall_net,
        "self_s_by_layer": {x: sum(p["layers"][x]["self_s"] for p in per_pass) for x in PATH_LAYERS},
        "self_s_net_by_layer": self_net,
        "clip_calls": clip_calls,
        "clip_hits": clip_hits,
        "coverage": {
            "noise+mechanisms+harness": sum(self_net[x] for x in ("noise", "mechanisms", "harness")) / wall_net,
            "cli+mechanisms": sum(self_net[x] for x in ("cli", "mechanisms")) / wall_net,
        },
    }
    return metrics, detail


def run_one(name: str, seed: int, seconds: float, trace: int, sizes=None) -> dict:
    dp = load_package()
    sizes = sizes or workloads.FULL
    facts = machine_facts()
    facts["loadavg_start"] = loadavg()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](dp, seed, sizes, WORK)
        setup = [timed_setup(wl) for _ in range(1 if trace else sizes.setup_reps)]
        runner = Runner(dp, wl, seconds)
        if trace:
            tracer = tracing.Tracer()
            measured = runner.traced(tracer)
            micro = layers.measure(dp, WORK, sizes.micro_scale)
            metrics, detail = per_layer(measured, micro)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_path, {"workload": name, "seed": seed, "facts": facts})
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            measured = runner.untraced()
            metrics, raw, detail = end_to_end(runner, measured, setup)
            detail["raw"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    facts["loadavg_end"] = loadavg()
    detail.update(
        workload=name, seed=seed, trace=trace, facts=facts,
        failed_frac=runner.failed / runner.attempted, problems=runner.problems[:20],
    )
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def report(result: dict) -> None:
    detail = result.pop("detail")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, m in detail.get("raw", {}).items():
        print(f"metric {name} {m['value']!r} {m['unit']} (raw wall clock, not bounded)")
    print(f"metric failed_frac {detail['failed_frac']!r} frac")
    for line in detail["problems"]:
        print(f"problem {line}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(f"== {name}\n{done.stdout}")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report(run_one(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
