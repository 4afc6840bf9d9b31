"""Physical parameter sets shared by every solver in the package.

Default unit system is m = omega0 = hbar = 1, which makes the amplitude
scale beta = sqrt(2) and Planck's constant h = 2*pi. All closed-form
coefficients in the solvers are written for general units, so any
consistent system works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator with restoring force omega0^2*x + lam*x^p per unit mass.

    force_exponent p selects the anharmonic term: p=2 adds a cubic term
    lam*m*x^3/3 to the potential, p=3 a quartic term lam*m*x^4/4.
    """

    mass: float = 1.0
    omega0: float = 1.0
    lam: float = 0.05
    hbar: float = 1.0
    force_exponent: int = 2

    def __post_init__(self) -> None:
        for name in ("mass", "omega0", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        if self.force_exponent not in (2, 3):
            raise ValueError(
                f"force_exponent must be 2 or 3, got {self.force_exponent!r}"
            )

    @property
    def h(self) -> float:
        """Unreduced Planck constant, h = 2*pi*hbar."""
        return 2.0 * math.pi * self.hbar

    @property
    def beta(self) -> float:
        """Amplitude scale sqrt(h / (pi*m*omega0)); beta^2 = 2*hbar/(m*omega0)."""
        return math.sqrt(2.0 * self.hbar / (self.mass * self.omega0))

