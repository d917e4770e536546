"""Experiment configuration: flat key=value files plus command-line overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


def _parse_float_list(s):
    return [float(tok) for tok in str(s).split(",") if tok.strip()]


def _parse_complex(s):
    return complex(str(s).replace(" ", ""))


@dataclass
class ExperimentConfig:
    """Everything the benchmark runners need, with benchmark-suite defaults."""

    shape: str = "rod"
    extent: list = field(default_factory=lambda: [16.4])  # wavelengths / counts
    vpw: int = 10  # voxels per wavelength
    eps_r: complex = 2.54
    n_min: int = 32
    eta: float = 1.0
    eps_aca: float = 1e-4
    eps_acc: float = 1e-4
    solver: str = "both"  # iterative | direct | both
    tol: float = 1e-3
    max_iter: int = 200
    dense_cap: int = 6000
    out: str = "results.csv"
    solution_out: str = "solution.txt"
    seed: int = 0
    sweep: list = field(default_factory=lambda: [16.4, 32.8, 65.6, 131.2, 262.4])
    svd_dim: int = 3  # 0 disables the two-body SVD sub-study
    svd_sizes: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    svd_eps: float = 1e-5

    def __post_init__(self):
        for name in ("eps_aca", "eps_acc", "tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must be in (0, 1)")
        if self.solver not in ("iterative", "direct", "both"):
            raise ValueError("solver must be iterative | direct | both")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.svd_dim not in (0, 1, 2, 3):
            raise ValueError(f"svd_dim must be 0, 1, 2 or 3, got {self.svd_dim}")
        if not all(math.isfinite(v) and v > 0 for v in self.svd_sizes):
            raise ValueError(f"svd_sizes must be finite and > 0, got {self.svd_sizes}")


# annotations are strings under `from __future__ import annotations`
_PARSE_BY_TYPE = {"str": str, "int": int, "float": float,
                  "complex": _parse_complex, "list": _parse_float_list}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExperimentConfig)}


def _coerce(key, value):
    if key not in _PARSERS:
        known = ", ".join(sorted(_PARSERS))
        raise KeyError(f"unknown config key {key!r}; known keys: {known}")
    return _PARSERS[key](value)


def load_config(path=None, overrides=()):
    """Build a config from an optional key=value file plus --set overrides.

    File syntax: one `key = value` per line, '#' starts a comment, blank
    lines ignored. Overrides are `key=value` strings applied last.
    """
    values = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip()] = _coerce(key.strip(), value.strip())
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), value.strip())
    return ExperimentConfig(**values)


def config_field_names():
    return [f.name for f in fields(ExperimentConfig)]
