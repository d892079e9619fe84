"""Plain-text key=value run configuration.

Every default of the pipeline lives here, and only here: the physics
objects take their values from ``RunConfig`` through ``assemble``. A value
that moves no result is not a key but a constant of the module that uses it
(``lifshitz.Y_CUT``, ``lifshitz.BASE_ORDER``, ``dielectric.TABLE_REFINE``).
Unknown keys are rejected, every value is checked against one range table
(below the defaults), and the canonical rendering of the config is hashed
into output metadata so reruns are attributable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    from _sha256 import sha256  # CPython 3.10-3.11

from .analysis import MIN_WINDOW_POINTS, Z0_BRACKET_MARGIN_NM, Z0_BRACKET_NM
from .errors import ParseError, names_its_file


@dataclass
class RunConfig:
    # geometry / material
    sphere_radius_um: float = 100.85
    # aluminium: plasma wavelength 100 nm (12.398 eV), relaxation 63 meV
    drude_wp_ev: float = 12.398
    drude_gamma_ev: float = 0.063
    material_csv: str = ""
    # corrections
    roughness_amplitude_nm: float = 11.8
    roughness_c2: float = 0.86
    roughness_c3: float = 1.02
    roughness_c4: float = 1.90
    temperature_k: float = 300.0
    cap_offset_nm: float = 15.8
    # quadrature
    rel_tol: float = 1e-4
    # theory cache: Chebyshev nodes over the separations a command reads
    theory_cache_points: int = 20
    # electrostatics / calibration
    v2_residual_mv: float = 7.9
    spring_constant_n_per_m: float = 0.0169
    deflection_sensitivity_nm: float = 1.0
    # statistics window
    window_lo_nm: float = 100.0
    window_hi_nm: float = 500.0
    window_points: int = 441
    # synthesis
    noise_pn: float = 7.0
    n_scans: int = 27
    seed: int = 0
    z0_true_nm: float = 48.9
    c_true_pn_per_nm: float = 0.001
    grid_lo_nm: float = 30.0
    grid_hi_nm: float = 920.0
    grid_points: int = 982

    def __post_init__(self):
        broken = _broken_rule(self)
        if broken is not None:
            raise ValueError(broken[1])

    def to_text(self) -> str:
        """Canonical key=value rendering (field order, one per line)."""
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    def digest(self) -> str:
        """The first 16 hex digits of SHA-256 over ``to_text()``.

        CPython's built-in SHA-256 gives the same digest as ``hashlib`` without
        loading OpenSSL's libcrypto (about 3.5 MiB of resident memory, Linux
        x86-64); no command loads it.
        """
        return sha256(self.to_text().encode()).hexdigest()[:16]


_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}

# The range table: (keys, requirement, test). The first key is the one
# bounded; a cross-field rule also lists the keys it reads. Every RunConfig
# runs it, whether parsed, built in code or made by replace().
_RANGES = (
    (("cap_offset_nm",), ">= 0", lambda c: c.cap_offset_nm >= 0),
    *(((key,), "finite", lambda c, key=key: math.isfinite(getattr(c, key)))
      for key, kind in _TYPES.items() if kind is float),
    (("noise_pn",), ">= 0", lambda c: c.noise_pn >= 0),
    (("n_scans",), ">= 1", lambda c: c.n_scans >= 1),
    (("grid_points",), ">= 10", lambda c: c.grid_points >= 10),
    (("grid_hi_nm", "grid_lo_nm"), "> grid_lo_nm",
     lambda c: c.grid_hi_nm > c.grid_lo_nm),
    (("grid_lo_nm", "z0_true_nm"), "> -z0_true_nm (above contact)",
     lambda c: c.grid_lo_nm > -c.z0_true_nm),
    (("seed",), ">= 0", lambda c: c.seed >= 0),
    (("z0_true_nm",), f"in [{Z0_BRACKET_NM[0] + Z0_BRACKET_MARGIN_NM:g}, "
     f"{Z0_BRACKET_NM[1] - Z0_BRACKET_MARGIN_NM:g}], the z0 fit bracket {Z0_BRACKET_NM} "
     f"less {Z0_BRACKET_MARGIN_NM:g} nm at each end",
     lambda c: (Z0_BRACKET_NM[0] + Z0_BRACKET_MARGIN_NM <= c.z0_true_nm
                <= Z0_BRACKET_NM[1] - Z0_BRACKET_MARGIN_NM)),
    # 1 m: above any Casimir lens, and below radii whose proximity guard lets
    # separations through that overflow the Lifshitz force estimate; the
    # radius must also stay above 0 once scaled to metres, as assemble scales it
    (("sphere_radius_um",), "in (0, 1e6], and > 0 in metres",
     lambda c: 0 < c.sphere_radius_um * 1e-6 and c.sphere_radius_um <= 1e6),
    # a metal's Drude energies (aluminium's plasma energy is 15 eV): a plasma
    # energy from 1 eV to 1 MeV, far below those whose squares overflow in
    # the Drude forms, and a damping up to 10 eV. With less plasma energy or
    # more damping eps(i xi) - 1 is small except at an xi below what the
    # Lifshitz rule resolves, and the force converges slowly in the order
    (("drude_wp_ev",), "in [1, 1e6]", lambda c: 1 <= c.drude_wp_ev <= 1e6),
    (("drude_gamma_ev",), "in [0, 10]", lambda c: 0 <= c.drude_gamma_ev <= 10),
    (("roughness_amplitude_nm",), ">= 0", lambda c: c.roughness_amplitude_nm >= 0),
    (("temperature_k",), ">= 0", lambda c: c.temperature_k >= 0),
    # down to 1e-8 the Lifshitz force converges by lifshitz's largest order,
    # 128, for the Drude energies above, with or without the packaged table,
    # from 1 nm to 5 cm at R = 1 m: its last two orders agree to 3.9e-9 at
    # worst (wp = 1 eV, gamma = 10 eV, at 1 nm)
    (("rel_tol",), "in [1e-8, 1e-2]", lambda c: 1e-8 <= c.rel_tol <= 1e-2),
    (("theory_cache_points",), ">= 2", lambda c: c.theory_cache_points >= 2),
    (("spring_constant_n_per_m",), "> 0", lambda c: c.spring_constant_n_per_m > 0),
    (("deflection_sensitivity_nm",), "> 0",
     lambda c: c.deflection_sensitivity_nm > 0),
    (("window_hi_nm", "window_lo_nm"), "> window_lo_nm",
     lambda c: c.window_hi_nm > c.window_lo_nm),
    (("window_points",), f">= {MIN_WINDOW_POINTS}",
     lambda c: c.window_points >= MIN_WINDOW_POINTS),
)


def _broken_rule(cfg: RunConfig):
    """(keys, message) of the first range rule cfg breaks, or None."""
    for keys, requirement, holds in _RANGES:
        if not holds(cfg):
            key = keys[0]
            return keys, (f"bad value for {key!r}: must be {requirement}, "
                          f"got {getattr(cfg, key)}")
    return None


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; '#' comments allowed; unknown keys rejected.

    A value outside the range table raises ParseError naming the key and
    the line that set it (the last such line for a cross-field rule).
    """
    cfg = RunConfig()
    line_of = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _TYPES:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        try:
            setattr(cfg, key, _TYPES[key](value))
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", line=lineno) from None
        line_of[key] = lineno
    broken = _broken_rule(cfg)
    if broken is not None:
        keys, message = broken
        raise ParseError(message, line=max((line_of[k] for k in keys if k in line_of),
                                           default=None))
    return cfg


@names_its_file
def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
