"""Analysis toolkit for orthogonal space-time block codes over
double-scattering MIMO channels: exact symbol error probabilities,
fading-figure and low-SNR capacity metrics, and a seeded Monte Carlo
engine that cross-validates every closed form."""

from .codes import OstbcCode, alamouti, code_by_name, g4, ostbc_rate
from .corrmat import (CorrelationMatrix, Spectrum, constant_corr,
                      correlation_figure, exponential_corr, identity_corr,
                      majorizes, matrix_sqrt, spectrum_of, tridiagonal_corr)
from .detform import (CharCoefficients, NumericFailure,
                      characteristic_coefficients, expected_inv_det_kron,
                      expected_inv_det_miso, expected_inv_det_uncorr, hyp2f0,
                      quadratic_form_eigen_pdf, wishart_eigen_pdf)
from .lowsnr import (LowSnrMetrics, ebn0_min, ebn0_min_received_db, eff_stbc,
                     lowsnr_capacity_curve, lowsnr_metrics, s0_general,
                     s0_ostbc, schur_order_eigs)
from .matstat import (Scenario, double_product_moments, expected_trace_square,
                      kurtosis_frobenius, sample_channel, trace_quadratic_cumulant)
from .mc import (Estimate, MonteCarloConfig, fit_diversity_slope, mc_capacity,
                 mc_kurtosis_eff, mc_sep, substream)
from .sep import (PskConstellation, UnsupportedScenarioError,
                  conditional_sep_mpsk, diversity_order, ostbc_snr_scale,
                  sep_mpsk, sep_mpsk_doubly_correlated, sep_mpsk_iid_rayleigh,
                  sep_mpsk_miso, sep_mpsk_no_double_scattering,
                  sep_mpsk_uncorrelated, sep_theta_integral)

__version__ = "0.1.0"
