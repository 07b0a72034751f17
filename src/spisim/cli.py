"""Command-line front end.

Subcommands: gen, measure, reconstruct, sweep, analyze-features. Every
command is deterministic given its flags/config (all seeds explicit), and no
command mutates its inputs. `sweep` reads its settings from a JSON
RunConfig file given with --config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields

DEFAULT_FRAME_RATE = 22000.0  # binary modulator frames per second


class HashMismatchError(RuntimeError):
    """Measurement was taken with a different pattern set than supplied."""


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Structured run configuration; unknown keys are rejected on load."""

    kinds: list = field(default_factory=lambda: ["morlet-real", "morlet-binary"])
    crs: list = field(default_factory=lambda: [0.02, 0.04, 0.06, 0.08, 0.10])
    methods: list = field(default_factory=lambda: ["pinv", "tv"])
    size: int = 256
    seed: int = 0
    corpus_paths: list = field(default_factory=list)  # empty: the standard corpus
    output_dir: str = "."
    sigma_range: list = None
    np_range: list = None
    additive_sigma: float = 0.0
    adc_bits: int = 0
    source_fluctuation_sigma: float = 0.0
    tv_mu_stages: int = 5
    tv_mu_start_frac: float = 0.1
    tv_mu_final: float = 1e-4
    tv_tol: float = 1e-6
    tv_max_inner: int = 3000
    tv_epsilon: float = 0.0

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("kinds", "crs", "methods", "corpus_paths"):
            if key in raw and not isinstance(raw[key], list):
                raise ValueError(f"config key {key!r} must be a list, "
                                 f"got {type(raw[key]).__name__}")
        return cls(**raw)

    def noise_model(self):
        from .acquire import NoiseModel

        return NoiseModel(additive_sigma=self.additive_sigma, adc_bits=self.adc_bits,
                          source_fluctuation_sigma=self.source_fluctuation_sigma)

    def tv_options(self):
        from .recon import TvOptions

        return TvOptions(mu_stages=self.tv_mu_stages, mu_start_frac=self.tv_mu_start_frac,
                         mu_final=self.tv_mu_final, tol=self.tv_tol,
                         max_inner=self.tv_max_inner, epsilon=self.tv_epsilon)

    def distribution(self):
        from .patterns import ParamDistribution

        if self.sigma_range is None and self.np_range is None:
            return None
        base = ParamDistribution.default_for(self.size, self.size)
        return ParamDistribution(
            sigma_range=tuple(self.sigma_range or base.sigma_range),
            np_range=tuple(self.np_range or base.np_range))


def _parse_size(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"size must look like 256x256, got {text!r}") from e


def _parse_range(text):
    lo, hi = (float(t) for t in text.split(","))
    return lo, hi


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_gen(args):
    from .patterns import ParamDistribution, gen_pattern_set, rows_for_cr, samples_per_row

    width, height = args.size
    n = width * height
    k = args.k if args.k is not None else rows_for_cr(args.kind, args.cr, n)
    dist = None
    if args.dist_sigma or args.dist_np:
        base = ParamDistribution.default_for(width, height)
        dist = ParamDistribution(sigma_range=args.dist_sigma or base.sigma_range,
                                 np_range=args.dist_np or base.np_range)
    ps = gen_pattern_set(args.kind, width, height, k, dist=dist, master_seed=args.seed)
    ps.save(args.out)
    size_bytes = os.path.getsize(args.out)
    print(f"kind={ps.kind} n={n} k={ps.k} cr={samples_per_row(ps.kind) * ps.k / n:.4%}")
    print(f"storage_bytes={size_bytes}")
    print(f"display_time_s={ps.k / args.frame_rate:.6g} (at {args.frame_rate:g} frames/s)")
    return 0


def _auto_differential(args_mode, ps):
    if args_mode == "on":
        return True
    if args_mode == "off":
        return False
    return ps.is_binary


def cmd_measure(args):
    from .acquire import (NoiseModel, measure, measure_differential,
                          measurement_to_csv, save_measurement)
    from .imgcore import load_image
    from .patterns import load_pattern_set

    img = load_image(args.image)
    ps = load_pattern_set(args.patterns)
    nm = NoiseModel(additive_sigma=args.noise_sigma, adc_bits=args.adc_bits,
                    source_fluctuation_sigma=args.fluctuation, seed=args.noise_seed)
    t0 = time.perf_counter()
    if _auto_differential(args.differential, ps):
        m = measure_differential(img, ps, nm)
    else:
        m = measure(img, ps, nm)
    if args.verbose:
        print(f"measure: {time.perf_counter() - t0:.3f}s k={m.k} cr={m.compression_ratio:.4%}")
    save_measurement(m, args.out)
    if args.csv:
        measurement_to_csv(m, args.csv)
    print(f"wrote {args.out} (k={m.k}, differential={m.is_differential})")
    return 0


def cmd_reconstruct(args):
    from . import recon
    from .acquire import load_measurement
    from .analyze import psnr, format_psnr
    from .imgcore import load_image, save_image
    from .patterns import load_pattern_set

    ps = load_pattern_set(args.patterns)
    m = load_measurement(args.measurement)
    if m.pattern_set_hash != ps.content_hash():
        raise HashMismatchError(
            "pattern-set hash mismatch: this measurement was not taken with "
            f"{args.patterns}")

    t0 = time.perf_counter()
    y = recon.effective_measurement(ps, m)
    model = recon.cached_pinv(ps, args.cache_dir) if args.cache_dir \
        else recon.linear_model(ps)
    if args.method == "pinv":
        img = recon.pinv_reconstruct(model, y)
    else:
        opts = recon.TvOptions(epsilon=args.tv_epsilon, tol=args.tv_tol,
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
    if args.reference:
        ref = load_image(args.reference)
        print(f"psnr_db={format_psnr(psnr(img, ref))}")
    return 0


def cmd_sweep(args):
    from .analyze import load_corpus, run_sweep, standard_corpus

    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    tv_opts = cfg.tv_options()
    if cfg.corpus_paths:
        corpus = load_corpus(cfg.corpus_paths, size=cfg.size)
    else:
        corpus = standard_corpus(size=cfg.size)
    os.makedirs(cfg.output_dir, exist_ok=True)
    t0 = time.perf_counter()

    def progress(kind, cr):
        if args.verbose:
            print(f"  cell done: {kind} cr={cr:.4%} "
                  f"({time.perf_counter() - t0:.1f}s elapsed)", flush=True)

    result = run_sweep(corpus, cfg.kinds, cfg.crs, cfg.methods,
                       nm=cfg.noise_model(), seed=cfg.seed, dist=cfg.distribution(),
                       tv_opts=tv_opts, progress=progress)
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
    from .analyze import (decompose_features, histogram_concentration, load_corpus,
                          standard_corpus)
    from .patterns import ParamDistribution

    if args.corpus:
        corpus = load_corpus(args.corpus, size=args.size)
    else:
        corpus = standard_corpus(size=args.size)
    images = [img for _, img in corpus]
    dist = ParamDistribution.default_for(args.size, args.size)
    if args.dist_sigma:
        dist = ParamDistribution(sigma_range=args.dist_sigma, np_range=dist.np_range)
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
                   choices=["morlet-real", "morlet-binary", "walsh-hadamard", "noiselet", "wh"])
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
    m.add_argument("--noise-sigma", type=float, default=0.0)
    m.add_argument("--adc-bits", type=int, default=0)
    m.add_argument("--fluctuation", type=float, default=0.0)
    m.add_argument("--noise-seed", type=int, default=0)
    m.add_argument("--verbose", action="store_true")
    m.set_defaults(func=cmd_measure)

    r = sub.add_parser("reconstruct", help="reconstruct an image from a measurement")
    r.add_argument("--patterns", required=True)
    r.add_argument("--measurement", required=True)
    r.add_argument("--method", choices=["pinv", "tv"], default="pinv")
    r.add_argument("--out", required=True)
    r.add_argument("--depth", type=int, choices=[8, 16], default=8)
    r.add_argument("--reference", help="original image; prints PSNR against it")
    r.add_argument("--cache-dir", help="directory caching the pattern set's orthogonalization "
                   "(SPIV), used by both methods")
    r.add_argument("--tv-epsilon", type=float, default=0.0)
    r.add_argument("--tv-tol", type=float, default=1e-6)
    r.add_argument("--tv-max-inner", type=int, default=3000)
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
    except (ValueError, OSError, HashMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
