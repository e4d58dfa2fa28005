"""Observation-driven GARCH-type time series: simulation, MLE, verification."""

from .estimation import FitOptions, FitResult, init_generic, mle_fit
from .likelihood import (LoglikValue, filter_series, grad_loglik_nbin, grad_loglik_numeric,
                         loglik)
from .models import log_emission, psi_step, sample_emission, simulate
from .montecarlo import ExperimentConfig, McSummary, run_experiment
from .params import (ModelParams, NbinParams, NmParams, Series, TingParams,
                     spectral_radius)
from .reparam import FeasibleMap
from .verifier import VerifierReport, verify_model

__version__ = "0.1.0"

__all__ = [
    "FitOptions", "FitResult", "init_generic", "mle_fit",
    "LoglikValue", "filter_series", "grad_loglik_nbin", "grad_loglik_numeric", "loglik",
    "log_emission", "psi_step", "sample_emission", "simulate",
    "ExperimentConfig", "McSummary", "run_experiment",
    "ModelParams", "NbinParams", "NmParams", "Series", "TingParams",
    "spectral_radius",
    "FeasibleMap",
    "VerifierReport", "verify_model",
]
