"""Campaign benchmark: host time and memory of simulated polling campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-churn --seed 2019 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``all`` runs every workload in ``workloads.py``: ``fleet-steady`` too,
which ``BENCHMARK.json`` leaves out for time.  The runner imports the
simulator once (``perfbench/campaign.py``) and forks one
single-threaded child per campaign, one at a time.  A measuring run
(``--trace 0``) first runs the reader's default sequential path once
as an untimed witness, which also warms the file cache, then repeats
the campaign in the shipped fast mode while another repeat would end
within ``--seconds`` (at least twice).  It prints the end-to-end
metrics -- medians over the repeats -- by name with units.  A traced
run (``--trace 1``) runs the witness, then the campaign untraced, then
traced.  It prints the per-layer metrics and writes the full layer
report to ``perfbench/out/``.

Every run is checked.  The campaign digest, the simulated statistics
and the operation count must be identical across the run's campaigns,
traced or not, and must equal the witness.  On any mismatch, or if a
campaign fails, the last line reports ``"correct": false`` and the
exit code is 1.  The last stdout line is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Measured campaigns per run: at least MIN_MEASURED, then more while
#: another one (as long as the slowest so far) would end within
#: ``--seconds``, at most MAX_MEASURED.
MIN_MEASURED = 2
MAX_MEASURED = 8
#: Hard wall-clock limit for one run, children included.
DEADLINE_S = 170.0


class CampaignFailed(RuntimeError):
    """A campaign child exited non-zero or overran the deadline."""


def run_campaign(workload: str, seed: int, role: str, workdir: Path,
                 deadline: float) -> dict:
    """One campaign in a forked child; returns its JSON result.

    The child starts from this process just after the simulator was
    imported, so it has no state from another campaign.  It sends its
    result back through a pipe.  On overrun, failure or SIGTERM the
    child is killed, and it is always reaped.
    """
    try:
        import campaign
    except Exception:
        traceback.print_exc()
        raise CampaignFailed(f"{role}: the simulator failed to import") from None

    begun = time.monotonic()
    if deadline - begun <= 0:
        raise CampaignFailed(f"{role}: no time left before the run deadline")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            result = campaign.run_role(workload, seed, role, workdir)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks = []
    status = None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CampaignFailed(f"{role}: campaign overran the run deadline")
                if select.select([pipe], [], [], remaining)[0]:
                    chunk = os.read(pipe.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not chunks:
        raise CampaignFailed(f"{role}: campaign exited with code {code}")
    result = json.loads(b"".join(chunks))
    print(f"{workload}: {role} campaign {result['campaign_s']:.2f} s "
          f"(child {time.monotonic() - begun:.2f} s)")
    return result


def check_outcomes(results: list, witness: dict | None, operations: int) -> list:
    """Per campaign, whether its outcome is the witness's, exactly."""
    if witness is None or witness["check"]["operations"] != operations:
        return [False] * len(results)
    return [r["check"] == witness["check"] for r in results]


def end_to_end(results: list, operations: int) -> dict:
    """Medians over the measured campaigns (set-up over every set-up)."""
    setups = [s for r in results for s in r["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "first_round_s": statistics.median(r["first_round_s"] for r in results),
        "node_rounds_per_s": statistics.median(
            operations / r["campaign_s"] for r in results
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def write_report(workload: str, seed: int, plain: dict, traced: dict) -> Path:
    """The traced-run report: per-layer table plus the trace's own figures."""
    campaign_s = traced["campaign_s"]
    layers = [
        {"layer": name, **row, "share": row["total_s"] / campaign_s}
        for name, row in sorted(
            traced["layers"].items(), key=lambda kv: -kv[1]["total_s"]
        )
    ]
    report = {
        "workload": workload,
        "seed": seed,
        "campaign_s": {"untraced": plain["campaign_s"], "traced": campaign_s},
        "trace.coverage": traced["per_layer"]["trace.coverage"],
        "trace.overhead_s": campaign_s - plain["campaign_s"],
        "digest": {"untraced": plain["check"]["digest"],
                   "traced": traced["check"]["digest"]},
        "traced_digest_equals_untraced":
            traced["check"]["digest"] == plain["check"]["digest"],
        "per_layer": traced["per_layer"],
        "layers": layers,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   spec: dict, deadline: float) -> dict:
    """One workload's run; returns the result object (not yet printed)."""
    shape = WORKLOADS[workload]
    operations = shape.operations
    workdir = OUT / f"tmp-{os.getpid()}"
    results: list = []
    started = 0          # checked campaigns started, failed ones included
    witness = None
    error = None
    try:
        witness = run_campaign(workload, seed, "witness", workdir, deadline)
        start = time.monotonic()
        longest = 0.0
        roles = ["measured", "traced"] if trace else ["measured"] * MIN_MEASURED
        while roles or (
            not trace
            and len(results) < MAX_MEASURED
            and time.monotonic() - start + longest <= seconds
        ):
            started += 1
            role = roles.pop(0) if roles else "measured"
            begun = time.monotonic()
            results.append(run_campaign(workload, seed, role, workdir, deadline))
            longest = max(longest, time.monotonic() - begun)
    except CampaignFailed as exc:
        error = str(exc)
        print(f"{workload}: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = check_outcomes(results, witness, operations)
    correct = error is None and all(ok)
    # A failed witness leaves no checked campaign started; its run still
    # attempted (and failed) one campaign's operations.
    attempted = operations * max(started, 1)
    failed = attempted - operations * sum(ok)
    if witness is not None:
        sim = witness["check"]["sim"]
        print(f"{workload}: {shape.nodes} nodes x {shape.rounds} rounds, seed {seed}; "
              f"digest {witness['check']['digest'][:12]}; "
              + ", ".join(f"sim.{k}={v}" for k, v in sim.items()))
    for good, r in zip(ok, results):
        if not good:
            print(f"{workload}: {r['role']} outcome differs from the witness:\n"
                  f"  got      {json.dumps(r['check'], sort_keys=True)}\n"
                  f"  expected {json.dumps((witness or {}).get('check'), sort_keys=True)}",
                  file=sys.stderr)

    if trace:
        names = spec["per_layer"]
        values = {}
        if correct:
            plain, traced = results
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = traced["campaign_s"] - plain["campaign_s"]
            values["setup.import_s"] = traced["import_s"]
            path = write_report(workload, seed, plain, traced)
            print(f"{workload}: layer report written to {path.relative_to(ROOT)}")
            layers = sorted(traced["layers"].items(), key=lambda kv: -kv[1]["total_s"])
            for name, row in layers:
                print(f"  {name:<26} calls {row['calls']:>7}  total {row['total_s']:9.4f} s"
                      f"  self {row['self_s']:9.4f} s")
    else:
        names = spec["end_to_end"]
        values = end_to_end(results, operations) if correct else {}
    metrics = {}
    if correct:
        for m in names:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark.")
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in list(WORKLOADS) + ["all"]:
        print(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} "
              "or 'all'", file=sys.stderr)
        return 2
    # A terminated runner raises here, and run_campaign then kills and
    # reaps the campaign child it was waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        result = bench_workload(name, args.seed, args.seconds, bool(args.trace),
                                spec, deadline)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{name}/"
        for key, value in result["metrics"].items():
            combined["metrics"][prefix + key] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same string hashing in every run, and one thread per BLAS and
        # OpenMP pool; both must be set before the interpreter starts.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"))
    sys.exit(main())
