"""spisim benchmark: one workload, timed end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. Each workload runs in a fresh worker process (worker.py)
whose BLAS and OpenMP thread variables are set before numpy loads, so the
process's peak RSS and thread count belong to that workload alone.

--trace 0 runs one untraced worker for S seconds and reports the end-to-end
metrics. --trace 1 runs an untraced worker and then a traced one for S/2
seconds each and reports the per-layer metrics, including the traced
cycle's overhead against the untraced one. Machine notes are printed as a
"# machine" line; the last line of output is the JSON result.

Exit status is 0 when a result was printed (outputs wrong or not), and
non-zero without a result when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170      # all workers of one invocation together
END_TO_END = {"setup_s": "s", "cycle_cpu_s": "s", "psnr_pinv_db": "dB",
              "psnr_tv_db": "dB", "peak_rss_mb": "MB"}


def _cache_sizes():
    """L2/L3 bytes from getconf (glibc asks the CPU; no files are read)."""
    sizes = {}
    for level in ("LEVEL2", "LEVEL3"):
        try:
            out = subprocess.run(["getconf", f"{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
            sizes[level.lower().replace("level", "l") + "_bytes"] = int(out)
        except (OSError, subprocess.SubprocessError, ValueError):
            sizes[level.lower().replace("level", "l") + "_bytes"] = None
    return sizes


def run_worker(workload, seed, seconds, trace, tmp, deadline):
    """Run worker.py once, killed at `deadline` (monotonic); returns its report."""
    out = Path(tmp) / f"report-{trace}.json"
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env.pop("SPI_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", str(tmp), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.read_text())


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "spisim" / "__init__.py").is_file():
        print(f"error: no spisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from layers import per_layer  # stdlib only; numpy stays out of this process

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.seconds / 2, 0, tmp, deadline)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, 1, tmp, deadline)
            reports = [plain, traced]
            metrics = per_layer(traced["tracer"], traced["cycles"], traced["cycle_cpu_s"],
                                plain["cycle_cpu_s"])
            units = {name: _layer_unit(name) for name in metrics}
        else:
            reports = [run_worker(args.workload, args.seed, args.seconds, 0, tmp, deadline)]
            metrics = {name: reports[0][name] for name in END_TO_END}
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    notes = dict(reports[0]["machine"], **_cache_sizes())
    print("# machine " + json.dumps(notes, sort_keys=True))
    for r in reports:
        print(f"# worker trace={'tracer' in r} cycles={r['cycles']} "
              f"cycle_cpu_times_s={r['cycle_cpu_times_s']} "
              f"cycle_wall_times_s={r['cycle_wall_times_s']} setup_times_s={r['setup_times_s']} "
              f"first_import_s={r['first_import_s']} inputs_s={r['inputs_s']} "
              f"tv_stages={r['tv_stages']} attempted={r['attempted']} failed={r['failed']}")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if any(v is None for v in metrics.values()):
        failed = max(failed, 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    """Unit from the name's stem: recon.forward_ms.gram -> "forward_ms" -> ms."""
    stem = name.split(".")[1]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio"),
                         ("_bytes", "bytes")):
        if stem.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
