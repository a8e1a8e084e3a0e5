"""Analysis toolkit for orthogonal space-time block codes over
double-scattering MIMO channels: exact symbol error probabilities,
fading-figure and low-SNR capacity metrics, and a seeded Monte Carlo
engine that cross-validates every closed form."""

from .codes import OstbcCode, alamouti, code_by_name, g4, ostbc_rate
from .corrmat import (CorrelationMatrix, Spectrum, constant_corr,
                      correlation_figure, exponential_corr, identity_corr,
                      majorizes, matrix_sqrt, spectrum_of, tridiagonal_corr)
from .detform import NumericFailure, expected_inv_det_kron, expected_inv_det_miso
from .lowsnr import (LowSnrMetrics, ebn0_min, ebn0_min_received_db, eff_stbc,
                     lowsnr_capacity_curve, lowsnr_metrics, s0_general,
                     s0_ostbc, schur_order_eigs)
from .matstat import (Scenario, double_product_moments, kurtosis_frobenius,
                      sample_channel)
from .mc import (Estimate, MonteCarloConfig, fit_diversity_slope, mc_capacity,
                 mc_kurtosis_eff, mc_sep, substream)
from .sep import (PskConstellation, UnsupportedScenarioError,
                  conditional_sep_mpsk, diversity_order, ostbc_snr_scale,
                  sep_mpsk, sep_mpsk_doubly_correlated, sep_mpsk_iid_rayleigh,
                  sep_mpsk_miso, sep_mpsk_no_double_scattering,
                  sep_theta_integral)

__version__ = "0.1.0"
