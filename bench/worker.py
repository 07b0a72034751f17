"""One benchmark process: set up one workload, run it in a closed loop, report.

Started by run.py with the BLAS thread variables already in its environment,
so they hold before numpy loads. Runs cycles of the workload back to back
until --seconds have passed (at least one cycle), checks every cycle's
outputs, and writes a JSON report to --out.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path


class CpuRotation:
    """Moves the main thread round the CPUs it may use, one every `period` s.

    On a shared machine the allowed CPUs can run at different speeds for tens
    of seconds at a time (a busy neighbour on one of them). A single-threaded
    process stays on one CPU, so its times would depend on where it landed;
    rotating gives every measurement the same mix of all allowed CPUs.
    """

    def __init__(self, period=0.02):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        i = 0
        while not self._stop.wait(self.period):
            i += 1
            os.sched_setaffinity(self.tid, {self.cpus[i % len(self.cpus)]})

    def start(self):
        if len(self.cpus) > 1:
            self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        os.sched_setaffinity(self.tid, set(self.cpus))


ROTATION = CpuRotation()
ROTATION.start()
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

_before = set(sys.modules)
_T0 = time.process_time()
import spisim  # noqa: E402
import spisim.cli  # noqa: E402
from spisim import recon  # noqa: E402
from spisim.analyze import _DENSE_LIMIT, run_sweep  # noqa: E402
from spisim.imgcore import save_image  # noqa: E402
from spisim.recon import TvOptions  # noqa: E402

FIRST_IMPORT_S = time.process_time() - _T0   # includes compiling .pyc files on a first run
SPISIM_MODULES = sorted(set(sys.modules) - _before)   # what importing spisim loads

# The acceptance suite's continuation schedule (5 stages, tol 1e-5) with a
# 12-iteration stage budget: 60 iterations per solve. The solver does not
# converge within it, so a cycle's time follows the cost per iteration.
TV = TvOptions(max_inner=12, mu_stages=5, tol=1e-5)
SETUP_REPEATS = 25     # set-ups per run; setup_s is their median
# Set-up, cycles and spans are timed in CPU seconds of this process
# (time.process_time). spisim runs on one thread here (BLAS threads are 1 and
# spisim starts none) and never waits on a device (it does not fsync), so its
# CPU time is the time it computes. Wall time also counts the time other
# tenants of a shared host hold the vCPU (steal): on the 2-vCPU VM this
# benchmark was built on, that moved the same cycle's wall time by up to 26%
# within two minutes, against 14% for its CPU time. Wall times are reported
# beside the CPU times.
PSNR_FLOOR_DB = 0.0    # sanity floor: at 0 dB the error is as large as the image


class StageBudget:
    """Wraps recon._nesta_stage to check that each stage either converged or
    ran exactly the configured number of iterations."""

    def __init__(self):
        self.stages = 0
        self.bad = 0

    def __call__(self, fn):
        def checked(op, b, x0, mu, eps, opts):
            y, done, iters = fn(op, b, x0, mu, eps, opts)
            self.stages += 1
            if not done and iters != opts.max_inner:
                self.bad += 1
            return y, done, iters
        return checked


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class SweepWorkload:
    """One run_sweep call per cycle over a dead-leaves corpus."""

    def __init__(self, seed, tmp, size, kinds, cr, images):
        self.seed, self.size, self.kinds, self.cr, self.images = seed, size, kinds, cr, images

    def make_inputs(self):
        self.corpus = corpus.corpus(self.size, self.images, self.seed)

    def row_matrix_bytes(self):
        n = self.size * self.size
        out = {}
        for kind in self.kinds:
            if kind.startswith("morlet"):
                k = max(2, int(round(self.cr * n)))
                itemsize = 4 if k * n > _DENSE_LIMIT else 8
                out[kind] = k * n * itemsize
        return out

    def cycle(self, tr):
        if tr:
            tr.open("analyze.run_sweep")
        try:
            res = run_sweep(self.corpus, self.kinds, [self.cr], ["pinv", "tv"],
                            seed=self.seed, tv_opts=TV)
        finally:
            if tr:
                tr.close()
        attempted = len(self.kinds)
        failed_cells = {e[0] for e in res.errors}
        for r in res.rows:
            if not (np.isfinite(r.psnr_db) and r.psnr_db > PSNR_FLOOR_DB):
                failed_cells.add(r.kind)
        psnr = {m: [r.psnr_db for r in res.rows if r.method == m] for m in ("pinv", "tv")}
        return attempted, len(failed_cells), psnr


class CliWorkload:
    """gen -> measure -> pinv (cache miss) -> pinv (cache hit) -> tv, in process."""

    size, CR = 128, 0.04

    def __init__(self, seed, tmp, **_):
        self.seed, self.tmp = seed, Path(tmp)
        self.image = self.tmp / "scene.pgm"
        self.count = 0

    def make_inputs(self):
        (_, img), = corpus.corpus(self.size, 1, self.seed)
        save_image(img, self.image, depth=16)

    def row_matrix_bytes(self):
        k = int(round(self.CR * self.size * self.size))
        return {"morlet-binary": k * self.size * self.size * 8}

    def _call(self, tr, step, argv):
        out = io.StringIO()
        if tr:
            tr.open(f"cli.{step}")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = spisim.cli.main([str(a) for a in argv])
        except Exception:  # an uncaught error is a failed CLI call, like exit status 1
            traceback.print_exc()
            code = 1
        finally:
            if tr:
                tr.close()
        psnr = None
        for line in out.getvalue().splitlines():
            if line.startswith("psnr_db="):
                psnr = float(line.split("=", 1)[1])
        return code, psnr

    def cycle(self, tr):
        self.count += 1
        d = self.tmp / f"trip{self.count}"
        d.mkdir()
        try:
            return self._trip(tr, d)
        finally:
            shutil.rmtree(d)

    def _trip(self, tr, d):
        s, pat, meas = self.seed, d / "pat.spip", d / "meas.spim"
        rec = ["reconstruct", "--patterns", pat, "--measurement", meas,
               "--depth", "16", "--reference", self.image]
        steps = [
            ("gen", ["gen", "--kind", "morlet-binary", "--size", f"{self.size}x{self.size}",
                     "--cr", self.CR, "--seed", s, "--out", pat]),
            ("measure", ["measure", "--image", self.image, "--patterns", pat, "--out", meas,
                         "--noise-sigma", "0.01", "--adc-bits", "12", "--noise-seed", s]),
            ("pinv_cold", rec + ["--method", "pinv", "--cache-dir", d / "cache",
                                 "--out", d / "miss.pgm"]),
            ("pinv_warm", rec + ["--method", "pinv", "--cache-dir", d / "cache",
                                 "--out", d / "hit.pgm"]),
            ("tv", rec + ["--method", "tv", "--tv-max-inner", TV.max_inner,
                          "--tv-tol", TV.tol, "--out", d / "tv.pgm"]),
        ]
        failed, psnr = 0, {"pinv": [], "tv": []}
        for step, argv in steps:
            code, value = self._call(tr, step, argv)
            ok = code == 0
            if step.startswith("pinv") or step == "tv":
                method = "tv" if step == "tv" else "pinv"
                ok = ok and value is not None and np.isfinite(value) and value > PSNR_FLOOR_DB
                if step != "pinv_warm":
                    psnr[method].append(value)
            if step == "pinv_warm":
                ok = ok and (d / "hit.pgm").read_bytes() == (d / "miss.pgm").read_bytes()
            failed += not ok
        return len(steps), failed, psnr


WORKLOADS = {
    "sweep-real128": (SweepWorkload, dict(size=128, kinds=["morlet-real"], cr=0.06,
                                          images=6)),
    "sweep-binary256": (SweepWorkload, dict(size=256, kinds=["morlet-binary"], cr=0.01,
                                            images=1)),
    "sweep-bases256": (SweepWorkload, dict(size=256, kinds=["walsh-hadamard", "noiselet"],
                                           cr=0.04, images=3)),
    "cli-roundtrip": (CliWorkload, {}),
}


def set_up(size):
    """What a fresh process does before its first call: import spisim, start
    the BLAS and fill numpy's FFT plan cache at the workload size.

    numpy stays loaded; every module spisim's first import loaded is dropped
    and imported again, then the first import's modules are put back, so the
    names this file holds stay the ones spisim itself uses.
    """
    first = {name: sys.modules.pop(name) for name in SPISIM_MODULES}
    importlib.import_module("spisim.cli")
    sys.modules.update(first)
    a = np.random.default_rng(0).standard_normal((256, 256))
    (a @ a).sum()
    np.fft.irfft2(np.fft.rfft2(np.ones((size, size))), s=(size, size))


# --------------------------------------------------------------------------
# machine notes
# --------------------------------------------------------------------------

def machine_notes(wl):
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, ValueError):  # numpy without the dict report
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "row_matrix_bytes": wl.row_matrix_bytes(),
    }


# --------------------------------------------------------------------------
# main loop
# --------------------------------------------------------------------------

def _mean_finite(values):
    finite = [v for v in values if v is not None and np.isfinite(v)]
    return statistics.fmean(finite) if finite else None


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tmp", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    if Path(spisim.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"spisim imported from {spisim.__file__}, not from the checkout")
    cls, params = WORKLOADS[args.workload]
    wl = cls(args.seed, args.tmp, **params)
    t = time.process_time()
    wl.make_inputs()
    inputs_s = time.process_time() - t
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.process_time()
        set_up(wl.size)
        setups.append(time.process_time() - t)

    budget = StageBudget()
    tr = Tracer() if args.trace else None
    if tr:
        layers.install(tr)
    # installed after the layer spans, so it sits outside the recon.tv_stage span
    original_stage = recon._nesta_stage
    recon._nesta_stage = budget(original_stage)

    times, wall_times, attempted, failed, psnr_runs = [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        t, c = time.perf_counter(), time.process_time()
        a, f, psnr = wl.cycle(tr)
        times.append(time.process_time() - c)
        dt = time.perf_counter() - t
        wall_times.append(dt)
        attempted += a
        failed += f
        psnr_runs.append(psnr)
        if time.perf_counter() - start + dt > args.seconds:
            break
    ROTATION.stop()
    recon._nesta_stage = original_stage
    if tr:
        tr.restore()

    # every cycle of a run computes on the same inputs: results must repeat exactly
    if any(run != psnr_runs[0] for run in psnr_runs[1:]):
        failed += 1
    failed += budget.bad

    report = {
        "cycles": len(times),
        "cycle_cpu_times_s": times,
        "cycle_wall_times_s": wall_times,
        "setup_times_s": setups,
        "first_import_s": FIRST_IMPORT_S,
        "inputs_s": inputs_s,
        "setup_s": statistics.median(setups),
        "cycle_cpu_s": statistics.median(times),
        "psnr_pinv_db": _mean_finite(psnr_runs[0]["pinv"]),
        "psnr_tv_db": _mean_finite(psnr_runs[0]["tv"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "tv_stages": budget.stages,
        "machine": machine_notes(wl),
    }
    if tr:
        report["tracer"] = {"calls": dict(tr.calls), "incl": dict(tr.incl),
                            "self": dict(tr.self_time), "counters": dict(tr.counters)}
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
