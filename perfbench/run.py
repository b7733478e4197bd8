"""Persona end-to-end benchmark.

    python3 perfbench/run.py --workload {wgs,postalign,placed} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``
there.  One run generates the workload's inputs from ``--seed``,
computes the expected output digests once on the serial backend, then
starts a separate session process that sets up the process backend
(``workers`` = the number of CPUs) and runs the workload over and over
for ``--seconds``, checking every iteration's outputs.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of the traced
iterations (see ``predictions.json``), and the run prints the self time
per layer and writes a Chrome trace-event file.  The full record of each
run (environment, input fingerprint, every iteration) is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

import proctree
import workloads

HERE = Path(__file__).resolve().parent
#: Time a session may take beyond ``--seconds``: its set-ups, the
#: warm-up iteration and the minimum iterations that can outlast the
#: measured window.
SESSION_MARGIN_S = 120.0
BENCHMARK = HERE.parent / "BENCHMARK.json"
#: Name prefix of every shared-memory segment the program creates.
SHM_PREFIX = "psna-"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wgs", "postalign", "placed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(kind: str) -> "dict[str, str]":
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"]
            for m in json.loads(BENCHMARK.read_text())[kind]}


def run_session(job: dict, work: Path) -> "tuple[dict | None, int]":
    """Run session.py in its own process group; (result, stderr lines).

    The session reports its own problems in the result file, so its
    stderr holds only what the program under test wrote there.
    """
    job_path, result_path = work / "job.json", work / "result.json"
    stderr_path = work / "session.stderr"
    job_path.write_text(json.dumps(job))
    timeout = job["seconds"] + SESSION_MARGIN_S
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), str(job_path),
             str(result_path)],
            stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"session exceeded {timeout:.0f} s; killed",
                  file=sys.stderr)
        finally:
            # The session's helpers share its process group; whatever
            # is left once it is gone ``main`` reaps.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    text = stderr_path.read_text(errors="replace")
    lines = text.count("\n")
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(text[-4000:])
        return None, lines
    return json.loads(result_path.read_text()), lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.dataflow.shm import SHM_DIR, list_segments
    out = root / ".perfbench"
    work = out / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Temporary files of the program stay inside the checkout too.
    os.environ["TMPDIR"] = str(work)
    # No process the run starts may outlive it: orphans re-parent here
    # and are waited for (or killed) before the run exits.
    proctree.become_subreaper()
    segments_before = set(list_segments(SHM_PREFIX))
    try:
        return measure(args, src, out, work)
    except Exception:  # noqa: BLE001 - report the failure as a result
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        killed = proctree.reap_descendants()
        if killed:
            print(f"killed processes left running: {killed}",
                  file=sys.stderr)
        # Segments of a killed session have no owner left to unlink
        # them; none remain after a run that ended normally.
        leaked = set(list_segments(SHM_PREFIX)) - segments_before
        for name in leaked:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass
        if leaked:
            print(f"removed {len(leaked)} shared-memory segments the run "
                  "left behind", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, src: Path, out: Path, work: Path) -> int:
    workers = os.cpu_count() or 1
    canary = workloads.canary_digest(work / "canary")
    canary_ok = canary == workloads.CANARY_DIGEST
    if not canary_ok:
        print(f"input generator changed: canary digest {canary} != "
              f"{workloads.CANARY_DIGEST}; this run's inputs are not the "
              "inputs earlier runs measured", file=sys.stderr)
    inputs = workloads.generate(args.workload, args.seed, work / "inputs")
    expected = workloads.reference_digests(args.workload, inputs,
                                           work / "reference")
    shutil.rmtree(work / "reference", ignore_errors=True)
    job = {
        "src": str(src), "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "work_dir": str(work),
        "inputs": inputs.to_doc(), "expected": expected,
    }
    result, stderr_lines = run_session(job, work)
    if result is None:
        raise RuntimeError("the session process failed; its stderr is above")
    env = result.pop("environment")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "input_fingerprint": inputs.fingerprint, "canary_digest": canary,
        "canary_ok": canary_ok, "expected": expected,
        "stderr_lines": stderr_lines, **result,
    }
    for it in result["iterations"]:
        for problem in it["problems"]:
            print(f"iteration {it['index']}: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"inputs: {inputs.reads} reads, {len(inputs.snps)} planted SNPs, "
          f"sha256 {inputs.fingerprint}")
    print(f"iterations: {result['attempted']} attempted, "
          f"{result['failed']} failed; stderr lines: {stderr_lines}; "
          f"host CPU steal during the run: {result['host_steal_frac']:.1%}")
    missing: list[str] = []
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["dataflow.stderr_lines"] = float(stderr_lines)
        print_layer_table(result, out, args)
        units = declared_units("per_layer")
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"per-layer metrics missing: {missing}", file=sys.stderr)
    else:
        metrics = result["end_to_end"]
        units = declared_units("end_to_end")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")
    record["metrics"] = metrics
    runs = out / "results"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    correct = canary_ok and result["failed"] == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def print_layer_table(result: dict, out: Path, args) -> None:
    table = result.get("layer_table", {})
    print("self time per layer, last traced iteration (thread-seconds; "
          "node threads overlap, so rows can sum past the wall):")
    for name, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<44} {seconds:9.4f} s")
    trace_file = result.get("trace_file")
    if trace_file:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        target = traces / f"{args.workload}-seed{args.seed}.json"
        shutil.copyfile(trace_file, target)
        print(f"chrome trace: {target}")


if __name__ == "__main__":
    sys.exit(main())
