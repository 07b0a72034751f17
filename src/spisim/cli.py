"""Command-line front end.

Subcommands: gen, measure, reconstruct, sweep, analyze-features. Every
command is deterministic given its flags/config (all seeds explicit), and no
command mutates its inputs. `sweep` reads its settings from a JSON
RunConfig file given with --config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

from .acquire import NoiseModel
from .imgcore import check_field_types, require_u64
from .patterns import DETERMINISTIC_KINDS, KINDS, ParamDistribution, rows_for_cr
from .recon import TvOptions

DEFAULT_FRAME_RATE = 22000.0  # binary modulator frames per second
METHODS = ("pinv", "tv")


class HashMismatchError(RuntimeError):
    """Measurement was taken with a different pattern set than supplied."""


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Structured run configuration; unknown keys are rejected on load,
    malformed values on construction."""

    kinds: list[str] = field(default_factory=lambda: ["morlet-real", "morlet-binary"])
    crs: list[float] = field(default_factory=lambda: [0.02, 0.04, 0.06, 0.08, 0.10])
    methods: list[str] = field(default_factory=lambda: ["pinv", "tv"])
    size: int = 256
    seed: int = 0
    corpus_paths: list[str] = field(default_factory=list)  # empty: the standard corpus
    output_dir: str = "."
    sigma_range: list[float] = None
    np_range: list[float] = None
    additive_sigma: float = NoiseModel.additive_sigma
    adc_bits: int = NoiseModel.adc_bits
    source_fluctuation_sigma: float = NoiseModel.source_fluctuation_sigma
    tv_mu_stages: int = TvOptions.mu_stages
    tv_tol: float = TvOptions.tol
    tv_max_inner: int = TvOptions.max_inner
    tv_epsilon: float = TvOptions.epsilon

    def __post_init__(self):
        self.tv_options()  # tv_* values are reported in TvOptions' terms
        check_field_types(self, "config key {!r}")
        require_u64(self.seed, "config key 'seed'")
        if self.size < 1 or self.size & (self.size - 1) and {*self.kinds} & {*DETERMINISTIC_KINDS}:
            raise ValueError("config key 'size' must be >= 1, and a power of 2 for "
                             f"{' and '.join(DETERMINISTIC_KINDS)}, got {self.size}")
        self.noise_model()
        self.distribution()
        for key in ("kinds", "crs", "methods"):
            if not getattr(self, key):
                raise ValueError(f"config key {key!r} must not be empty")
        for key, allowed in (("kinds", KINDS), ("methods", METHODS)):
            if unknown := [v for v in getattr(self, key) if v not in allowed]:
                raise ValueError(f"config key {key!r} has unknown entries {unknown}")
        for kind in self.kinds:  # every cell's row count, before any cell runs
            for cr in self.crs:
                rows_for_cr(kind, cr, self.size ** 2)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        if unknown := set(raw) - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def noise_model(self):
        return NoiseModel(additive_sigma=self.additive_sigma, adc_bits=self.adc_bits,
                          source_fluctuation_sigma=self.source_fluctuation_sigma)

    def tv_options(self):
        return TvOptions(mu_stages=self.tv_mu_stages, tol=self.tv_tol,
                         max_inner=self.tv_max_inner, epsilon=self.tv_epsilon)

    def distribution(self):
        return _distribution(self.size, self.size, self.sigma_range, self.np_range)


def _distribution(width, height, sigma_range=None, np_range=None):
    """ParamDistribution.default_for(width, height) with the ranges that are
    not None in place of its own."""
    base = ParamDistribution.default_for(width, height)
    return ParamDistribution(
        sigma_range=tuple(base.sigma_range if sigma_range is None else sigma_range),
        np_range=tuple(base.np_range if np_range is None else np_range))


def _parse_size(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"size must look like 256x256, got {text!r}") from e


def _parse_range(text):
    try:
        lo, hi = text.split(",")
        return float(lo), float(hi)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"range must look like lo,hi, got {text!r}") from e


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_gen(args):
    from .patterns import gen_pattern_set, samples_per_row

    if not 0 < args.frame_rate < math.inf:
        raise ValueError(f"frame rate must be positive and finite, got {args.frame_rate!r}")
    width, height = args.size
    n = width * height
    k = args.k if args.k is not None else rows_for_cr(args.kind, args.cr, n)
    dist = _distribution(width, height, args.dist_sigma, args.dist_np)
    ps = gen_pattern_set(args.kind, width, height, k, dist=dist, master_seed=args.seed)
    ps.save(args.out)
    size_bytes = os.path.getsize(args.out)
    print(f"kind={ps.kind} n={n} k={ps.k} cr={samples_per_row(ps.kind) * ps.k / n:.4%}")
    print(f"storage_bytes={size_bytes}")
    print(f"display_time_s={ps.k / args.frame_rate:.6g} (at {args.frame_rate:g} frames/s)")
    return 0


def cmd_measure(args):
    from .acquire import measure, measure_differential, measurement_to_csv, save_measurement
    from .imgcore import load_image
    from .patterns import load_pattern_set

    img = load_image(args.image)
    ps = load_pattern_set(args.patterns)
    nm = NoiseModel(additive_sigma=args.noise_sigma, adc_bits=args.adc_bits,
                    source_fluctuation_sigma=args.fluctuation, seed=args.noise_seed)
    t0 = time.perf_counter()
    on = {"on": True, "off": False}.get(args.differential, ps.is_binary)  # auto: binary sets
    m = (measure_differential if on else measure)(img, ps, nm)
    if args.verbose:
        print(f"measure: {time.perf_counter() - t0:.3f}s samples={m.k} "
              f"cr={m.compression_ratio:.4%}")
    save_measurement(m, args.out)
    if args.csv:
        measurement_to_csv(m, args.csv)
    print(f"wrote {args.out} (samples={m.k}, differential={m.is_differential})")
    return 0


def cmd_reconstruct(args):
    from . import recon
    from .acquire import load_measurement
    from .analyze import psnr
    from .imgcore import load_image, save_image
    from .patterns import load_pattern_set

    ps = load_pattern_set(args.patterns)
    m = load_measurement(args.measurement)
    if m.pattern_set_hash != ps.content_hash():
        raise HashMismatchError(
            "pattern-set hash mismatch: this measurement was not taken with "
            f"{args.patterns}")
    ref = load_image(args.reference) if args.reference else None
    if ref is not None and (ref.width, ref.height) != (ps.width, ps.height):
        raise ValueError(f"reference {ref.width}x{ref.height} does not match patterns "
                         f"{ps.width}x{ps.height}")

    t0 = time.perf_counter()
    y = recon.effective_measurement(ps, m)
    model = recon.cached_pinv(ps, args.cache_dir) if args.cache_dir \
        else recon.linear_model(ps)
    if args.method == "pinv":
        img = recon.pinv_reconstruct(model, y)
    else:
        opts = TvOptions(epsilon=args.tv_epsilon, tol=args.tv_tol,
                         max_inner=args.tv_max_inner)
        res = recon.tv_reconstruct(model, y, opts)
        if not res.converged:
            print("warning: TV solver hit the iteration budget before converging",
                  file=sys.stderr)
        img = res.image
    if args.verbose:
        print(f"reconstruct[{args.method}]: {time.perf_counter() - t0:.3f}s")

    save_image(img, args.out, depth=args.depth)
    print(f"wrote {args.out}")
    if ref is not None:
        print(f"psnr_db={psnr(img, ref)!r}")
    return 0


def cmd_sweep(args):
    from .analyze import load_corpus, run_sweep

    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    corpus = load_corpus(cfg.corpus_paths, size=cfg.size)
    os.makedirs(cfg.output_dir, exist_ok=True)
    t0 = time.perf_counter()

    def progress(kind, cr):
        if args.verbose:
            print(f"  cell done: {kind} cr={cr:.4%} "
                  f"({time.perf_counter() - t0:.1f}s elapsed)", flush=True)

    result = run_sweep(corpus, cfg.kinds, cfg.crs, cfg.methods,
                       nm=cfg.noise_model(), seed=cfg.seed, dist=cfg.distribution(),
                       tv_opts=cfg.tv_options(), progress=progress)
    cells_csv = os.path.join(cfg.output_dir, "sweep_cells.csv")
    summary_csv = os.path.join(cfg.output_dir, "sweep_summary.csv")
    result.to_csv(cells_csv)
    result.summary_to_csv(summary_csv)
    for kind, cr, method, mean, std, rt in result.summary():
        print(f"{kind:14s} cr={cr:.2%} {method:4s} psnr={mean:7.2f} +- {std:5.2f} dB "
              f"({rt:.1f}s)")
    for err in result.errors:
        print(f"cell failed: {err}", file=sys.stderr)
    print(f"wrote {cells_csv} and {summary_csv}")
    return 1 if result.errors else 0


def cmd_analyze_features(args):
    from .analyze import decompose_features, histogram_concentration, load_corpus

    dist = _distribution(args.size, args.size, args.dist_sigma)
    images = [img for _, img in load_corpus(args.corpus, size=args.size)]
    hist = decompose_features(images, args.dict_size, dist, seed=args.seed)
    hist.to_csv(args.out)
    frac, mask = histogram_concentration(hist)
    print(f"wrote {args.out} ({hist.values.shape[0]}x{hist.values.shape[1]} bins, "
          f"corpus={hist.corpus_size})")
    print(f"histogram_concentration={frac:.4f} "
          f"({mask.sum()} of {mask.size} bins in one contiguous region)")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="spisim",
                                description="single-pixel compressive imaging simulator")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a pattern set (SPIP file)")
    g.add_argument("--kind", required=True,
                   choices=[*KINDS, "wh"])
    g.add_argument("--size", required=True, type=_parse_size, help="WxH pixels")
    g.add_argument("--cr", type=float, default=0.04,
                   help="compression ratio: real samples per pixel (two per noiselet row)")
    g.add_argument("--k", type=int, help="explicit row count (overrides --cr)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dist-sigma", type=_parse_range, help="lo,hi pixels (log-uniform)")
    g.add_argument("--dist-np", type=_parse_range, help="lo,hi periods (uniform)")
    g.add_argument("--frame-rate", type=float, default=DEFAULT_FRAME_RATE)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    m = sub.add_parser("measure", help="simulate a measurement (SPIM file)")
    m.add_argument("--image", required=True)
    m.add_argument("--patterns", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--csv", help="also export index,value CSV")
    m.add_argument("--differential", choices=["auto", "on", "off"], default="auto")
    m.add_argument("--noise-sigma", type=float, default=NoiseModel.additive_sigma)
    m.add_argument("--adc-bits", type=int, default=NoiseModel.adc_bits)
    m.add_argument("--fluctuation", type=float,
                   default=NoiseModel.source_fluctuation_sigma)
    m.add_argument("--noise-seed", type=int, default=NoiseModel.seed)
    m.add_argument("--verbose", action="store_true")
    m.set_defaults(func=cmd_measure)

    r = sub.add_parser("reconstruct", help="reconstruct an image from a measurement")
    r.add_argument("--patterns", required=True)
    r.add_argument("--measurement", required=True)
    r.add_argument("--method", choices=METHODS, default="pinv")
    r.add_argument("--out", required=True)
    r.add_argument("--depth", type=int, choices=[8, 16], default=8)
    r.add_argument("--reference", help="original image; prints PSNR against it")
    r.add_argument("--cache-dir", help="directory caching the pattern set's orthogonalization "
                   "(SPIV), used by both methods")
    r.add_argument("--tv-epsilon", type=float, default=TvOptions.epsilon)
    r.add_argument("--tv-tol", type=float, default=TvOptions.tol)
    r.add_argument("--tv-max-inner", type=int, default=TvOptions.max_inner)
    r.add_argument("--verbose", action="store_true")
    r.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("sweep", help="PSNR-vs-CR sweep over a corpus")
    s.add_argument("--config", help="JSON RunConfig (overrides defaults)")
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=cmd_sweep)

    a = sub.add_parser("analyze-features", help="feature-space decomposition histogram")
    a.add_argument("--corpus", nargs="*", help="image paths (default: standard corpus)")
    a.add_argument("--size", type=int, default=128)
    a.add_argument("--dict-size", type=int, default=512)
    a.add_argument("--dist-sigma", type=_parse_range)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_analyze_features)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "kind", None) == "wh":
        args.kind = "walsh-hadamard"
    try:
        return args.func(args)
    except (ValueError, OSError, HashMismatchError, ImportError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
