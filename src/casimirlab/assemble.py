"""Builders turning a RunConfig into the physics and pipeline objects.

The physics objects have no defaults of their own: this is the only code
that reads a physical value from the config and converts it to SI.
"""

from __future__ import annotations

from .analysis import ForwardModel
from .config import RunConfig
from .constants import energy_ev_to_angular_frequency
from .corrections import (RoughnessSpec, TemperatureParams, TheoryCurve,
                          TheoryParams)
from .dielectric import (DielectricModel, DrudeModel, DrudeParams,
                         load_optical_table, tabulated_with_drude_tail)
from .electrostatics import ElectrostaticConfig
from .forcecurve import CalibrationParams
from .lifshitz import QuadratureParams, SphereGeometry


def dielectric_model(cfg: RunConfig, force_drude: bool = False,
                     material_csv: str | None = None) -> DielectricModel:
    drude = DrudeParams(energy_ev_to_angular_frequency(cfg.drude_wp_ev),
                        energy_ev_to_angular_frequency(cfg.drude_gamma_ev))
    path = material_csv if material_csv else cfg.material_csv
    if force_drude or not path:
        return DrudeModel(drude)
    return tabulated_with_drude_tail(load_optical_table(path), drude)


def theory_params(cfg: RunConfig, model: DielectricModel) -> TheoryParams:
    return TheoryParams(
        geom=SphereGeometry(cfg.sphere_radius_um * 1e-6),
        model=model,
        rough=RoughnessSpec(A=cfg.roughness_amplitude_nm * 1e-9,
                            coeffs=(cfg.roughness_c2, cfg.roughness_c3,
                                    cfg.roughness_c4)),
        temp=TemperatureParams(T=cfg.temperature_k),
        quad=QuadratureParams(rel_tol=cfg.rel_tol),
    )


def theory_curve(cfg: RunConfig, span_nm, model: DielectricModel | None = None) -> TheoryCurve:
    """The theory cache of cfg, or of ``model``, over span_nm: the (lo, hi)
    separations in nm a command reads (``analysis.theory_span_nm``)."""
    params = theory_params(cfg, dielectric_model(cfg) if model is None else model)
    return TheoryCurve(params, span_nm[0] * 1e-9, span_nm[1] * 1e-9, cfg.theory_cache_points)


def electrostatic_config(cfg: RunConfig) -> ElectrostaticConfig:
    return ElectrostaticConfig(R=cfg.sphere_radius_um * 1e-6,
                               V2=cfg.v2_residual_mv * 1e-3)


def forward_model(cfg: RunConfig, span_nm) -> ForwardModel:
    """The measured-force model of cfg: its theory cache over span_nm, electrostatics and cap."""
    return ForwardModel(theory_curve(cfg, span_nm), electrostatic_config(cfg), cfg.cap_offset_nm)


def calibration_params(cfg: RunConfig) -> CalibrationParams:
    return CalibrationParams(k=cfg.spring_constant_n_per_m,
                             deflection_sensitivity=cfg.deflection_sensitivity_nm)

