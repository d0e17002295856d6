"""The values a fit or a run may be given: method names and the range of
each setting.

A method is written ``family-kernel[-psiK-dir]``, e.g. ``svdd-linear``,
``ssvdd-rbf-psi1-max`` or ``nssvdd-linear-psi2-min``; ``MethodSpec.reads``
says which settings a method's fit reads, and ``check_settings`` tests those
and any other given. The numeric settings each have one range, in ``RANGES``:

- the fit settings ``FIT_SETTINGS`` (C, d, beta, eta, sigma, k_max, seed),
  with their defaults in ``subspace.TrainConfig``;
- the run settings: ``repetitions``, ``k`` (the cross-validation folds),
  ``splits`` and ``jobs``, and ``make_occ_split``'s ``train_frac`` (a
  benchmark or trace splits at ``evaluate.TRAIN_FRAC``); the base seed of a
  run, which each fit's seed is derived from, is a ``seed``.

Every value that reaches a fit or a run, whether it comes as a CLI flag, an
API argument, a grid list entry, a benchmark config key or a model file
field, is typed and tested by ``check_setting`` alone. NaN, +-Inf and bools
fail every test, and no integer setting exceeds ``INT_MAX`` = 2**63 - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# each family and the subspace update it runs; plain SVDD holds Q = I fixed
OPTIMIZER_OF = {"svdd": None, "ssvdd": "gradient", "nssvdd": "newton"}
FAMILIES = tuple(OPTIMIZER_OF)
KERNELS = ("linear", "rbf")
PSIS = (0, 1, 2, 3)
DIRECTIONS = ("min", "max")

_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)
# integer settings end at the largest int64, so each fits a numpy integer
# array and converts to a float
INT_MAX = 2**63 - 1

# setting -> (types, test, what its values must be); a bool is of no type
# here, and NaN and +-Inf fail every test
RANGES = {
    "C": (_REAL, lambda v: 0 < v < math.inf, "a positive finite number"),
    "d": (_INTEGER, lambda v: 1 <= v <= INT_MAX, "a positive integer up to 2**63 - 1"),
    "beta": (_REAL, lambda v: 0 <= v < math.inf, "a non-negative finite number"),
    "eta": (_REAL, lambda v: 0 < v < math.inf, "a positive finite number"),
    "sigma": (_REAL, lambda v: 0 < v < math.inf, "a positive finite number"),
    "k_max": (_INTEGER, lambda v: 1 <= v <= INT_MAX, "a positive integer up to 2**63 - 1"),
    "seed": (_INTEGER, lambda v: 0 <= v <= INT_MAX, "a non-negative integer up to 2**63 - 1"),
    "repetitions": (_INTEGER, lambda v: 1 <= v <= INT_MAX, "a positive integer up to 2**63 - 1"),
    "k": (_INTEGER, lambda v: 2 <= v <= INT_MAX, "an integer of at least 2, up to 2**63 - 1"),
    "train_frac": (_REAL, lambda v: 0 < v < 1, "a number strictly between 0 and 1"),
    "splits": (_INTEGER, lambda v: 1 <= v <= INT_MAX, "a positive integer up to 2**63 - 1"),
    "jobs": (_INTEGER, lambda v: 1 <= v <= INT_MAX, "a positive integer up to 2**63 - 1"),
}
# the settings of one fit; the rest of RANGES are run settings
FIT_SETTINGS = ("C", "d", "beta", "eta", "sigma", "k_max", "seed")


def check_setting(name, value):
    """Raise ValueError unless ``value`` lies in the range of setting ``name``."""
    types, test, what = RANGES[name]
    if isinstance(value, bool) or not isinstance(value, types) or not test(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_settings(method, values):
    """Raise ValueError unless each setting in ``values`` (name -> value) that
    was given (not None) or that ``method`` reads lies in its range."""
    for name, value in values.items():
        if value is not None or method.reads(name):
            check_setting(name, value)


@dataclass(frozen=True)
class MethodSpec:
    """Parsed method string: family, feature space, regularizer, direction."""

    family: str
    kernel: str
    psi: int | None = None
    direction: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown method family {self.family!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.family == "svdd":
            if self.psi is not None or self.direction is not None:
                raise ValueError("plain svdd takes no psi/direction")
        else:
            integer = isinstance(self.psi, _INTEGER) and not isinstance(self.psi, bool)
            if not (integer and self.psi in PSIS):
                raise ValueError(f"psi must be one of {PSIS}, got {self.psi!r}")
            if self.direction not in DIRECTIONS:
                raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")

    def reads(self, name):
        """Whether a fit of this method reads setting ``name``: plain SVDD
        holds Q = I, so it reads no d, beta or eta, and the linear kernel
        reads no sigma."""
        if name in ("d", "beta", "eta"):
            return self.family != "svdd"
        return name != "sigma" or self.kernel == "rbf"

    @property
    def optimizer(self):
        return OPTIMIZER_OF[self.family]

    def __str__(self):
        if self.family == "svdd":
            return f"{self.family}-{self.kernel}"
        return f"{self.family}-{self.kernel}-psi{self.psi}-{self.direction}"


def parse_method(text):
    parts = text.strip().lower().split("-")
    if len(parts) == 2:
        return MethodSpec(family=parts[0], kernel=parts[1])
    if len(parts) == 4:
        if not parts[2].startswith("psi"):
            raise ValueError(f"bad method string {text!r}")
        return MethodSpec(
            family=parts[0],
            kernel=parts[1],
            psi=int(parts[2][3:]),
            direction=parts[3],
        )
    raise ValueError(f"bad method string {text!r}")
