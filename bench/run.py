"""The tjl benchmark: cold `tjl` runs on four workloads, timed from outside.

    python3 bench/run.py --workload scan --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seconds 28

Every sample is one fresh `python -I bench/child.py` process that imports
tjl from ``src`` of the checkout this file sits in.  A run starts children
one after another until ``--seconds`` have passed, checks each child's
stdout, and reports medians.  Times are reported at the reference speed:
each is divided by the host's slowdown that the child's speed probes
measured while it ran (see ``slowdown``).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
children and prints the per-layer metrics read from the traced ones (see
tracer.py).
``--workload all`` runs every workload both ways and prints every metric.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {value, unit}}).  The full result, with
samples, quartiles, the self-time tree and provenance, is written to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(ROOT, ".bench_results")

# A run stops starting children once this much time has passed, so that it
# ends well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0

# How long child.probe_loop takes at the reference speed: about its
# duration when the 2-vCPU Xeon VM the benchmark was written on ran fast.
PROBE_REF_S = 1.1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    # sha256 of the canonical output (see digest) at the seed commit.
    reference: str
    round_trips: int | None = None
    seeded: bool = False

    def argv(self, seed: int, index: int) -> list[str]:
        """The command of a run's ``index``-th input.  A seeded workload
        gives each input its own seed, derived from the run's, so a run's
        median covers several inputs: one roundtrip seed can take 10%
        longer than another."""
        if not self.seeded:
            return list(self.command)
        return [*self.command, "--seed", str(seed * 1000 + index)]


def census_grid(max_qn: int, max_q: int = 5) -> tuple[str, ...]:
    """The acceptance-criteria grid q in {2,3,4,5}, n in {1,2,3}, N in
    {1,2}, cut to q^n - 1 <= max_qn and q <= max_q, as child arguments."""
    return tuple(f"{q}:{n}:{level}" for q in range(2, max_q + 1)
                 for n in (1, 2, 3) for level in (1, 2)
                 if q ** n - 1 <= max_qn)


# Sizes are chosen so one child takes about 1.5-2.5 s on a 2-CPU Xeon: on
# a shared machine the median of many short children is steadier than that
# of a few long ones.  Why each workload exists is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("scan",
             ("verify", "--q", "3", "--depth-bound", "3",
              "--round-trips", "5"),
             "356d2a42b87a923a9f2b091a9ab2a9adc512dab0a05c50fc04e4dbcc51bd7a61",
             round_trips=5),
    Workload("roundtrip",
             ("verify", "--q", "5", "--degree-bound", "1", "--depth-bound",
              "1", "--round-trips", "120"),
             "e052347cb9b1ca9cf4295b555ea97c8069bffcce06dd0c7d090ce9543d0f5b37",
             round_trips=120, seeded=True),
    Workload("spectral",
             ("verify", "--q", "7", "--degree-bound", "1", "--depth-bound",
              "1", "--round-trips", "5"),
             "1def8b2c03c6bf4fac984e6b19f4bf4a4bb8978b5b9fbae3808217d0c380ec37",
             round_trips=5),
    Workload("census", ("census", *census_grid(26)),
             "aa77fd161be60941bb088088ef08417a938183f9c38c9773e6ebe52b1b268077"),
)}

# Times at the reference speed; peak_rss_mb as measured.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# name: (unit, better, which end-to-end metric it should move, and where)
PER_LAYER = {
    "funcfield.poly_mul.calls": ("count", "lower", "wall_s on scan, roundtrip"),
    "funcfield.poly_divmod.calls": ("count", "lower", "wall_s on roundtrip"),
    "funcfield.poly_xgcd.calls": ("count", "lower", "wall_s on roundtrip"),
    "funcfield.ratfunc_init.calls": ("count", "lower", "wall_s on roundtrip"),
    "adelic.box_candidates.s": ("s", "lower", "wall_s, peak_rss_mb on scan"),
    "adelic.box_candidates.yielded": ("count", "lower", "wall_s, peak_rss_mb on scan"),
    "adelic.scan.useful_frac": ("ratio", "higher", "wall_s, peak_rss_mb on scan"),
    "adelic.verify_witness_uniqueness.s": ("s", "lower", "wall_s on scan"),
    "adelic.witness_set.s": ("s", "lower", "wall_s on roundtrip"),
    "adelic.witness_set.calls": ("count", "lower", "wall_s on roundtrip"),
    "adelic.witness_set.hit_frac": ("ratio", "higher", "wall_s on roundtrip"),
    "adelic.split_place.calls": ("count", "lower", "wall_s on roundtrip"),
    "adelic.split_place.s": ("s", "lower", "wall_s on roundtrip"),
    "adelic.embed.calls": ("count", "lower", "wall_s on roundtrip"),
    "adelic.synthesize_random_adele.s": ("s", "lower", "wall_s on roundtrip"),
    "adelic.factorize_adele.s": ("s", "lower", "wall_s on roundtrip"),
    "adelic.factorize_adele.calls": ("count", "lower", "wall_s on roundtrip"),
    "quaternion.order_mul.calls": ("count", "lower", "wall_s on roundtrip"),
    "quaternion.nrd.calls": ("count", "lower", "wall_s on roundtrip"),
    "quaternion.inverse.calls": ("count", "lower", "wall_s on roundtrip"),
    "quaternion.reduce_at_zero.calls": ("count", "lower", "wall_s on roundtrip"),
    "cyclotomic.mul.calls": ("count", "lower", "wall_s on census, then spectral"),
    "cyclotomic.add.calls": ("count", "lower", "wall_s on census, then spectral"),
    "cyclotomic.reduced.calls": ("count", "lower", "wall_s on census, then spectral"),
    "cyclotomic.eq.calls": ("count", "lower", "wall_s on census, then spectral"),
    "cyclotomic.inverse.calls": ("count", "lower", "wall_s on spectral"),
    "cyclotomic.inverse.s": ("s", "lower", "wall_s on spectral"),
    "metacyclic.character_table.s": ("s", "lower", "wall_s on census"),
    "metacyclic.conjugacy_classes.s": ("s", "lower", "wall_s on census"),
    "metacyclic.character_inner.s": ("s", "lower", "wall_s on census"),
    "metacyclic.character_inner.calls": ("count", "lower", "wall_s on census"),
    "metacyclic.chi_multiplicity.s": ("s", "lower", "wall_s on census"),
    "metacyclic.chi_multiplicity.calls": ("count", "lower", "wall_s on census"),
    "metacyclic.irrep_character.calls": ("count", "lower", "wall_s on census"),
    "linalg.rref.s": ("s", "lower", "wall_s on spectral"),
    "linalg.rref.calls": ("count", "lower", "wall_s on spectral"),
    "linalg.kernel_basis.s": ("s", "lower", "wall_s on spectral"),
    "linalg.restrict_operator.s": ("s", "lower", "wall_s on spectral"),
    "spectral.hom_space.s": ("s", "lower", "wall_s on spectral"),
    "spectral.decompose.s": ("s", "lower", "wall_s on spectral"),
    "spectral.verify_claim.s": ("s", "lower", "wall_s on spectral"),
    "spectral.verify_claim.calls": ("count", "lower", "wall_s on spectral"),
    "tame.enumerate_A_tame.s": ("s", "lower", "wall_s on spectral (small)"),
    "cli.stage.uniqueness.s": ("s", "lower", "wall_s on scan"),
    "cli.stage.round_trips.s": ("s", "lower", "wall_s on roundtrip"),
    "cli.stage.spectral.s": ("s", "lower", "wall_s on spectral"),
    "cli.emit.s": ("s", "lower", "wall_s on every workload"),
    "cli.emit.bytes": ("bytes", "lower", "wall_s on every workload"),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing"),
    "host.slowdown": ("ratio", "lower", "none: divided out of every time"),
    "host.wall_raw_s": ("s", "lower", "none: wall_s times host.slowdown"),
    "fail_frac": ("ratio", "lower", "none: runs failed / runs attempted"),
}


# -- output checks -----------------------------------------------------


def digest(stdout: bytes) -> str:
    """sha256 over the output's JSON lines in canonical form, with
    ``round_trips.seed`` removed so the reference does not depend on it."""
    lines = []
    for line in stdout.decode().splitlines():
        obj = json.loads(line)
        trips = obj.get("round_trips") if isinstance(obj, dict) else None
        if isinstance(trips, dict):
            trips.pop("seed", None)
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_output(wl: Workload, stdout: bytes) -> list[str]:
    """Problems with one child's output; empty when it is correct."""
    try:
        docs = [json.loads(line) for line in stdout.decode().splitlines()]
        problems = (_check_census(docs) if wl.command[0] == "census"
                    else _check_verify(wl, docs))
        if digest(stdout) != wl.reference:
            problems.append("output differs from the reference")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


def _check_verify(wl: Workload, docs: list) -> list[str]:
    if len(docs) != 1:
        return [f"{len(docs)} reports, want 1"]
    report = docs[0]
    problems = []
    if report["all_claims_ok"] is not True:
        problems.append("all_claims_ok is not true")
    for u in report["witness_uniqueness"]:
        if u["witnesses"] != u["cosets"]:
            problems.append(f"{u['witnesses']} witnesses for {u['cosets']} "
                            f"cosets at {u['place']}")
    if report["round_trips"]["count"] != wl.round_trips:
        problems.append(f"{report['round_trips']['count']} round trips, "
                        f"want {wl.round_trips}")
    return problems


def _check_census(docs: list) -> list[str]:
    if not docs or len(docs) % 2:
        return [f"{len(docs)} lines, want irreps/chi pairs"]
    problems = []
    for irreps, chi in zip(docs[::2], docs[1::2]):
        group = (irreps["q"], irreps["n"], irreps["N"])
        if (chi["q"], chi["n"], chi["N"]) != group:
            problems.append(f"chi line {chi['q'], chi['n'], chi['N']} "
                            f"follows irreps of {group}")
        if irreps["orthonormal"] is not True:
            problems.append(f"{group}: characters not orthonormal")
        if irreps["square_sum"] != irreps["group_order"]:
            problems.append(f"{group}: sum of dim^2 is not the order")
        if irreps["irrep_count"] != irreps["class_count"]:
            problems.append(f"{group}: irreps and classes differ in number")
        if [c["sigma"] for c in chi["chi"]] != irreps["irreps"]:
            problems.append(f"{group}: chi lines do not cover the irreps")
        for c in chi["chi"]:
            mults, sigma = c["multiplicities"], c["sigma"]
            support = [e for e, m in enumerate(mults) if m]
            if (any(m not in (0, 1) for m in mults)
                    or sum(mults) != sigma["dim"]
                    or support != sorted(sigma["orbit"])):
                problems.append(f"{group}: chi check fails for {sigma}")
    return problems


# -- children ----------------------------------------------------------


def slowdown(probes: list, until: float | None = None) -> float | None:
    """How much slower than the reference speed the host ran while the
    probes (``[start, duration]`` pairs, see child.py) were taken, up to
    ``until`` if given: their harmonic mean duration over PROBE_REF_S.
    The probes fire evenly in wall time, so a time divided by this is the
    time the same work takes at the reference speed."""
    durations = [d for t, d in probes if until is None or t < until]
    if not durations:
        return None
    return statistics.harmonic_mean(durations) / PROBE_REF_S


def spawn(argv: list[str], traced: bool, tmp: str, timeout: float) -> dict:
    """Run one child to completion and measure it from outside."""
    fd, meta = tempfile.mkstemp(dir=tmp, suffix=".json")
    os.close(fd)
    with tempfile.TemporaryFile(dir=tmp) as out, \
            tempfile.TemporaryFile(dir=tmp) as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", CHILD, meta, str(int(traced)), *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    sample = {
        "rc": proc.returncode,
        "host.wall_raw_s": wall,
        "cpu_raw_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stdout": stdout,
        "stderr": stderr.decode(errors="replace")[-2000:],
    }
    try:
        with open(meta) as fh:
            info = json.load(fh)
        sample["setup_raw_s"] = info["setup_mark"] - start
        sample["trace"] = info.get("trace")
        if info.get("peak_rss_kib"):
            # ru_maxrss would also count the parent's pages at spawn
            sample["peak_rss_mb"] = info["peak_rss_kib"] / 1024
        slow = slowdown(info["probes"])
        if slow is not None:
            sample["host.slowdown"] = slow
            sample["wall_s"] = wall / slow
            sample["cpu_s"] = sample["cpu_raw_s"] / slow
            setup_slow = slowdown(info["probes"], info["setup_mark"]) or slow
            sample["setup_s"] = sample["setup_raw_s"] / setup_slow
    except (OSError, ValueError, KeyError, TypeError):
        pass
    os.unlink(meta)
    return sample


class Run:
    """The children of one run, with the bookkeeping for the result."""

    def __init__(self, wl: Workload, seed: int, seconds: float, tmp: str):
        self.wl, self.seed, self.seconds, self.tmp = wl, seed, seconds, tmp
        self.start = time.monotonic()
        self.samples: list[dict] = []
        self.setups: list[float] = []
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def measuring(self) -> bool:
        """Whether to start another workload child: until ``seconds`` have
        passed, at least one, and only if it fits the run's budget."""
        if not self.samples:
            return True
        elapsed = time.monotonic() - self.start
        longest = max(s["host.wall_raw_s"] for s in self.samples)
        return elapsed < self.seconds and longest < self.remaining()

    def child(self, traced: bool, index: int) -> None:
        sample = spawn(self.wl.argv(self.seed, index), traced, self.tmp,
                       self.remaining())
        sample["traced"] = traced
        problems = check_output(self.wl, sample["stdout"])
        if sample["rc"] != 0:
            problems.insert(0, f"exit code {sample['rc']}: {sample['stderr']}")
        if traced and sample.get("trace") is None:
            problems.append("traced child wrote no trace")
        if "host.slowdown" not in sample:
            problems.append("child recorded no speed probe")
        sample["problems"] = problems
        self.problems += [f"child {len(self.samples)}: {p}" for p in problems]
        if "setup_s" in sample and not traced:
            self.setups.append(sample["setup_s"])
        self.samples.append(sample)

    def warm_up(self) -> None:
        """One set-up-only child, unmeasured: the first import in a fresh
        checkout compiles bytecode, which later runs do not pay."""
        spawn(["setup"], False, self.tmp, self.remaining())

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s["problems"])


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def end_to_end(run: Run) -> dict:
    index = 0
    while run.measuring():
        run.child(traced=False, index=index)
        index += 1
    # the raw times and the slowdown go to the result file, not the line
    values = {name: [s[name] for s in run.samples if name in s]
              for name in ("wall_s", "cpu_s", "peak_rss_mb", "host.slowdown",
                           "host.wall_raw_s", "cpu_raw_s", "setup_raw_s")}
    values["setup_s"] = run.setups
    return {name: quartiles(v) for name, v in values.items() if v}


def per_layer(run: Run) -> tuple[dict, dict]:
    """Alternate untraced and traced children; the per-layer metrics are
    medians over the traced ones, except ``host.*``, which come from the
    untraced ones.  Also returns the last traced child's self-time tree and
    the tracer targets tjl no longer has."""
    index = 0
    while run.measuring():
        run.child(traced=False, index=index)
        run.child(traced=True, index=index)
        index += 1
    sys.path.insert(0, HERE)
    from tracer import summarize

    traced = [s for s in run.samples
              if s["traced"] and s.get("trace") and "wall_s" in s]
    plain = [s for s in run.samples if not s["traced"] and "wall_s" in s]
    summaries = [summarize(s["trace"]) for s in traced]
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for summary, sample in zip(summaries, traced):
        layer = layer_values(summary)
        if plain:
            untraced = statistics.median(s["wall_s"] for s in plain)
            layer["trace.overhead_frac"] = sample["wall_s"] / untraced - 1
        for name in PER_LAYER:
            if name in layer:
                values[name].append(layer[name])
    for name in ("host.slowdown", "host.wall_raw_s"):
        values[name] = [s[name] for s in plain]
    stats = {name: quartiles(v) for name, v in values.items() if v}
    stats["fail_frac"] = quartiles([run.failed / len(run.samples)])
    last = summaries[-1] if summaries else {"tree": [], "missing": []}
    return stats, {"self_time_tree": last["tree"],
                   "trace_missing": last["missing"]}


def layer_values(summary: dict) -> dict:
    counts, self_s, total_s = (summary["counts"], summary["self_s"],
                               summary["total_s"])
    out = {}
    for name in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.startswith("cli.stage."):
            # a stage span is reported whole: the stages split wall_s
            out[name] = total_s.get(base, 0.0)
        elif name.endswith(".s"):
            out[name] = self_s.get(base, 0.0)
        elif name.endswith((".calls", ".yielded", ".bytes")):
            out[name] = counts.get(name, 0)
    yielded = counts.get("adelic.box_candidates.yielded", 0)
    out["adelic.scan.useful_frac"] = (
        counts.get("adelic.scan.certified", 0) / yielded if yielded else 0.0)
    calls = counts.get("adelic.witness_set.calls", 0)
    out["adelic.witness_set.hit_frac"] = (
        counts.get("adelic.witness_set.hits", 0) / calls if calls else 0.0)
    return out


# -- provenance and the result -----------------------------------------


def provenance(seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    tjl_dir = os.path.join(ROOT, "src", "tjl")
    for name in sorted(os.listdir(tjl_dir)):
        if name.endswith(".py"):
            with open(os.path.join(tjl_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "seed": seed,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 tmp: str) -> dict:
    """One run: the metrics, the samples behind them and provenance."""
    load_start = os.getloadavg()
    run = Run(wl, seed, seconds, tmp)
    run.warm_up()
    result = {"workload": wl.name, "trace": int(trace),
              "seconds": seconds, "provenance": provenance(seed)}
    if trace:
        stats, trace_info = per_layer(run)
        result.update(trace_info)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        result["moves"] = {name: spec[2] for name, spec in PER_LAYER.items()}
    else:
        stats = end_to_end(run)
        units = END_TO_END
    result["provenance"]["loadavg_start"] = load_start
    result["provenance"]["loadavg_end"] = os.getloadavg()
    result["stats"] = stats
    result["fail_frac"] = run.failed / len(run.samples)
    result["problems"] = run.problems
    result["line"] = {
        "correct": not run.problems and all(n in stats for n in units),
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items() if name in stats},
    }
    return result


def write_result(result: dict, name: str) -> str:
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tjl", "cli.py")):
        print(f"no tjl sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        if args.workload != "all":
            wl = WORKLOADS[args.workload]
            result = run_workload(wl, args.seed, args.seconds,
                                  bool(args.trace), tmp)
            write_result(result, f"{wl.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
            line = result["line"]
        else:
            results = [run_workload(wl, args.seed, args.seconds, trace, tmp)
                       for wl in WORKLOADS.values() for trace in (False, True)]
            for r in results:
                print(f"{r['workload']} (trace {r['trace']}):")
                for name, m in r["line"]["metrics"].items():
                    print(f"  {name} = {m['value']:.6g} {m['unit']}")
            path = write_result({"runs": results}, f"all-seed{args.seed}.json")
            print(f"written to {path}")
            line = {
                "correct": all(r["line"]["correct"] for r in results),
                "attempted": sum(r["line"]["attempted"] for r in results),
                "failed": sum(r["line"]["failed"] for r in results),
                "metrics": {f"{r['workload']}.{name}": m for r in results
                            for name, m in r["line"]["metrics"].items()},
            }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
