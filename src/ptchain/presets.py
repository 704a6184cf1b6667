"""Named parameter presets for the ``ptchain figure`` subcommand.

Each preset is a plain dict: ``mode`` selects the runner, the rest are its
keyword parameters. Gain/loss values that are ladder values are taken from
:func:`~ptchain.poles.threshold_ladder`, so presets stay in sync with the
closed forms.
"""

from __future__ import annotations

import math
from typing import Any

from .poles import threshold_ladder

__all__ = ["PRESETS", "preset_names", "get_preset"]

# N = 3 thresholds used by several panels
_GAMMA_C3 = threshold_ladder(3).gamma_critical  # lowest ladder value, ~0.5176
_GAMMA_13 = threshold_ladder(3).gamma_values[0]  # highest ladder value, ~1.9319

# Wave-packet setup shared by the time-evolution panels
_EVOLVE_COMMON: dict[str, Any] = {
    "n_cells": 3,
    "total_sites": 1200,
    "j0": -300,
    "sigma": 60.0,
    "k0": 0.5 * math.pi,
    "times": [0.0, 60.0, 150.0, 225.0, 300.0],
}

_POLE_PANEL_GAMMAS = {
    "fig2a": 0.3,
    "fig2b": _GAMMA_C3,
    "fig2c": 0.7,
    "fig2d": 1.37,
    "fig2e": math.sqrt(2.0),
    "fig2f": 1.5,
    "fig2g": 1.9,
    "fig2h": _GAMMA_13,
    "fig2i": 2.0,
}

PRESETS: dict[str, dict[str, Any]] = {}

for _name, _g in _POLE_PANEL_GAMMAS.items():
    PRESETS[_name] = {
        "mode": "poles",
        "n_cells": 3,
        "gamma": _g,
    }

PRESETS["fig3"] = {
    "mode": "trajectory",
    "n_cells": 3,
    "gamma_min": 0.0,
    "gamma_max": 2.0,
    "steps": 200,
}

PRESETS["fig4"] = {
    "mode": "threshold",
    "n_min": 1,
    "n_max": 50,
}

for _name, _g in (("fig5a", 0.3), ("fig5b", _GAMMA_C3), ("fig5c", 0.7)):
    PRESETS[_name] = {
        "mode": "scatter",
        "n_cells": 3,
        "gamma": _g,
        "k_min": 0.002 * math.pi,
        "k_max": 0.998 * math.pi,
        "steps": 599,
    }

for _name, _g in (("fig5d", 0.3), ("fig5e", _GAMMA_C3), ("fig5f", 0.7)):
    PRESETS[_name] = {"mode": "evolve", "gamma": _g, **_EVOLVE_COMMON}

PRESETS["fig6"] = {
    "mode": "size_scan",
    "gamma": 0.3,
    "energies": [1.93, math.sqrt(4.0 - 0.09), 1.98],
    "n_max": 50,
}

PRESETS["fig7a"] = {
    "mode": "scatter",
    "n_cells": 1,
    "gamma": 1.0,
    "e_min": -1.999,
    "e_max": 1.999,
    "steps": 801,
}

PRESETS["fig7b"] = {
    "mode": "scatter",
    "n_cells": 2,
    "gamma": 1.0,
    "e_min": -1.999,
    "e_max": 1.999,
    "steps": 801,
}

PRESETS["fig8"] = {
    "mode": "gamma_scan",
    "n_cells": 3,
    "k": 0.5 * math.pi,
    "gamma_min": 0.01,
    "gamma_max": 1.99,
    "steps": 991,
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict[str, Any]:
    try:
        return dict(PRESETS[name])
    except KeyError:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
