"""Where the benchmark puts its spans, and the per-layer metrics they give.

`install` wraps names in the namespaces where `spisim` looks them up, so a
call from one module into another passes through a span named
"<module>.<what>". `per_layer` turns the aggregated spans into per-cycle
numbers: counts and seconds are per workload cycle, `_ms` metrics are
milliseconds per call. A layer a workload never reaches reports 0.
"""

from __future__ import annotations

import os
from collections import defaultdict

MODULES = ("wavelets", "patterns", "acquire", "recon", "analyze", "imgcore", "cli")
OPS = (("gram", "_GramVtOp"), ("dense", "_DenseVtOp"),
       ("wht", "_WhtSubsetOp"), ("noiselet", "_NoiseletSubsetOp"))
CLI_STEPS = ("gen", "measure", "pinv_cold", "pinv_warm", "tv")


def _file_bytes(counter, path_arg):
    def after(tr, result, args, kwargs):
        tr.count(counter, os.path.getsize(args[path_arg]))
    return after


def install(tr):
    """Wrap every layer boundary the workloads cross; tr.restore() undoes it."""
    import spisim.acquire as acquire
    import spisim.analyze as analyze
    import spisim.imgcore as imgcore
    import spisim.patterns as patterns
    import spisim.recon as recon

    def wrap(owner, attr, name, after=None):
        hook = None if after is None else (lambda res, a, kw: after(tr, res, a, kw))
        tr.patch(owner, attr, lambda fn: tr.wrap(fn, name, hook))

    # wavelets: reached from per-row generation in patterns
    wrap(patterns, "morlet_wavelet", "wavelets.morlet_wavelet")

    # patterns: generation, bit unpacking, fast transforms, SPIP files
    wrap(patterns, "gen_morlet_pattern", "patterns.gen_row")
    for owner in (patterns, analyze):
        wrap(owner, "gen_pattern_set", "patterns.gen_pattern_set")
    tr.patch(analyze, "iter_morlet_rows",
             lambda fn: tr.wrap_generator(fn, "patterns.iter_morlet_rows"))
    for owner in (analyze, recon):
        wrap(owner, "bipolar_rows", "patterns.bipolar_rows")
    for owner in (recon, acquire):
        for attr in ("wht2", "noiselet2", "noiselet2_inverse"):
            if hasattr(owner, attr):
                wrap(owner, attr, "patterns.transform")
    wrap(patterns.PatternSet, "save", "patterns.spip_write",
         _file_bytes("patterns.spip_bytes", 1))
    wrap(patterns, "load_pattern_set", "patterns.spip_read")
    wrap(patterns.PatternSet, "content_hash", "patterns.hash")

    # acquire: simulated measurement and SPIM files
    for owner in (acquire, analyze):
        wrap(owner, "measure", "acquire.measure")
    wrap(acquire, "measure_differential", "acquire.measure")
    wrap(analyze, "_measure_effective", "acquire.measure")
    wrap(acquire, "save_measurement", "acquire.spim_write")
    wrap(acquire, "load_measurement", "acquire.spim_read")

    # recon: orthogonalization, operators, TV solver, pinv and its cache
    def rank(tr, res, a, kw):
        tr.count("recon.rank_sum", res[0].shape[1])
    wrap(recon, "gram_orthogonalize", "recon.gram", rank)

    def svd_rank(tr, res, a, kw):
        tr.count("recon.rank_sum", res.effective_rank)
    wrap(recon, "factorize", "recon.svd", svd_rank)
    for label, cls in OPS:
        for direction in ("forward", "adjoint"):
            def op_bytes(tr, res, a, kw, label=label):
                mat = getattr(a[0], "m", getattr(a[0], "vt", None))
                if mat is not None:
                    tr.counters[f"recon.op_bytes.{label}"] = mat.nbytes
            wrap(getattr(recon, cls), direction, f"recon.{direction}.{label}", op_bytes)
    wrap(recon, "_tv_grad", "recon.tv_grad")

    def stage(tr, res, a, kw):
        tr.count("recon.tv_iters", res[2])
    wrap(recon, "_nesta_stage", "recon.tv_stage", stage)

    def solve_flags(tr, res, a, kw):
        converged, monotone = ((res.converged, res.monotone) if hasattr(res, "converged")
                               else (res[1], res[2]))
        tr.count("recon.tv_solves")
        tr.count("recon.tv_converged", bool(converged))
        tr.count("recon.tv_monotone", bool(monotone))
    for attr in ("tv_reconstruct", "tv_reconstruct_batch_gram", "tv_reconstruct_batch_basis"):
        wrap(recon, attr, "recon.tv_solve", solve_flags)
    for attr in ("gram_pinv_apply", "pinv_reconstruct_basis", "pinv_reconstruct"):
        wrap(recon, attr, "recon.pinv_apply")
    wrap(recon, "cached_pinv", "recon.cache_lookup")
    wrap(recon, "save_pinv", "recon.spiv_write", _file_bytes("recon.spiv_bytes", 1))
    wrap(recon, "load_pinv", "recon.spiv_read")

    # analyze: quality metric (run_sweep itself is the root span of a cycle)
    wrap(analyze, "psnr", "analyze.psnr")

    # imgcore: image files
    wrap(imgcore, "load_image", "imgcore.load")
    wrap(imgcore, "save_image", "imgcore.save")


def per_layer(tables, cycles, traced_cycle_s, untraced_cycle_s):
    """Per-layer metric name -> value, averaged per cycle.

    `tables` holds a Tracer's "calls", "incl", "self" and "counters" dicts.
    """
    calls, incl, counters, self_time = (defaultdict(float, tables[key]) for key in
                                        ("calls", "incl", "counters", "self"))

    def per_cycle(value):
        return value / cycles

    def ms_per_call(*names):
        n = sum(calls[x] for x in names)
        return 1e3 * sum(incl[x] for x in names) / n if n else 0.0

    solves = counters["recon.tv_solves"]
    rank_calls = calls["recon.gram"] + calls["recon.svd"]
    out = {
        "wavelets.morlet_calls": per_cycle(calls["wavelets.morlet_wavelet"]),
        "wavelets.morlet_ms": ms_per_call("wavelets.morlet_wavelet"),
        "patterns.rows": per_cycle(calls["patterns.gen_row"]),
        "patterns.gen_row_ms": ms_per_call("patterns.gen_row"),
        "patterns.bipolar_s": per_cycle(incl["patterns.bipolar_rows"]),
        "patterns.transform_calls": per_cycle(calls["patterns.transform"]),
        "patterns.transform_ms": ms_per_call("patterns.transform"),
        "patterns.spip_write_s": per_cycle(incl["patterns.spip_write"]),
        "patterns.spip_read_s": per_cycle(incl["patterns.spip_read"]),
        "patterns.spip_bytes": per_cycle(counters["patterns.spip_bytes"]),
        "patterns.hash_ms": ms_per_call("patterns.hash"),
        "acquire.measure_s": per_cycle(incl["acquire.measure"]),
        "acquire.spim_write_s": per_cycle(incl["acquire.spim_write"]),
        "acquire.spim_read_s": per_cycle(incl["acquire.spim_read"]),
        "recon.gram_s": per_cycle(incl["recon.gram"]),
        "recon.svd_s": per_cycle(incl["recon.svd"]),
        "recon.effective_rank": counters["recon.rank_sum"] / rank_calls if rank_calls else 0.0,
    }
    for label, _ in OPS:
        for direction in ("forward", "adjoint"):
            name = f"recon.{direction}.{label}"
            out[f"recon.{direction}_calls.{label}"] = per_cycle(calls[name])
            out[f"recon.{direction}_ms.{label}"] = ms_per_call(name)
    iters = counters["recon.tv_iters"]
    lookups = calls["recon.cache_lookup"]
    out.update({
        "recon.op_bytes.gram": counters["recon.op_bytes.gram"],
        "recon.op_bytes.dense": counters["recon.op_bytes.dense"],
        "recon.tv_grad_calls": per_cycle(calls["recon.tv_grad"]),
        "recon.tv_grad_ms": ms_per_call("recon.tv_grad"),
        "recon.tv_iters": per_cycle(iters),
        "recon.tv_iter_ms": 1e3 * incl["recon.tv_stage"] / iters if iters else 0.0,
        "recon.tv_converged_ratio": counters["recon.tv_converged"] / solves if solves else 0.0,
        "recon.tv_monotone_ratio": counters["recon.tv_monotone"] / solves if solves else 0.0,
        "recon.pinv_apply_ms": ms_per_call("recon.pinv_apply"),
        "recon.cache_lookups": per_cycle(lookups),
        "recon.cache_hits": per_cycle(lookups - calls["recon.spiv_write"]),
        "recon.spiv_write_s": per_cycle(incl["recon.spiv_write"]),
        "recon.spiv_read_s": per_cycle(incl["recon.spiv_read"]),
        "recon.spiv_bytes": per_cycle(counters["recon.spiv_bytes"]),
        "analyze.psnr_ms": ms_per_call("analyze.psnr"),
        "imgcore.load_ms": ms_per_call("imgcore.load"),
        "imgcore.save_ms": ms_per_call("imgcore.save"),
    })
    for step in CLI_STEPS:
        out[f"cli.{step}_s"] = per_cycle(incl[f"cli.{step}"])
    self_sum = 0.0
    for module in MODULES:
        s = sum(v for k, v in self_time.items() if k.split(".", 1)[0] == module)
        out[f"{module}.self_s"] = per_cycle(s)
        self_sum += s
    out.update({
        "trace.cycle_cpu_s": traced_cycle_s,
        "trace.untraced_cycle_cpu_s": untraced_cycle_s,
        "trace.overhead_pct": 100.0 * (traced_cycle_s - untraced_cycle_s) / untraced_cycle_s,
        "trace.self_sum_s": per_cycle(self_sum),
        "trace.spans": per_cycle(sum(calls.values())),
    })
    return out
