"""spisim: a simulation laboratory for single-pixel compressive imaging.

Generates wavelet-correlated nonergodic random sampling patterns (plus
Walsh-Hadamard and noiselet baselines), simulates differential single-pixel
measurements, and reconstructs images by truncated-SVD pseudoinverse or
total-variation minimization.
"""

from .imgcore import Image, FormatError, load_image, save_image, save_spif
from .wavelets import GaborParams, MorletParams, gabor_filter, morlet_wavelet
from .patterns import (KINDS, ParamDistribution, PatternSet, basis_row_2d,
                       binarize, fast_noiselet, fast_wht, gen_morlet_pattern,
                       gen_pattern_set, load_pattern_set)
from .acquire import (Measurement, NoiseModel, combine_differential,
                      load_measurement, measure, measure_differential,
                      save_measurement)
from .recon import (PinvMatrix, PinvStream, SvdFactors, TvOptions, TvResult,
                    factorize, linear_model, pinv_matrix, pinv_reconstruct,
                    tv_reconstruct)
from .analyze import (FeatureHistogram, SweepResult, decompose_features, mse,
                      psnr, run_sweep)

__version__ = "0.1.0"
