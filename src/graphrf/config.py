"""What a run may be asked: the experiment config, its file format, and the
keys each run reads.

This module refuses every config that a run could not carry out as given,
before any trial: :class:`ExperimentConfig` refuses a value of the wrong
type or out of range when it is built, and :func:`_check_run` refuses a key
that its run does not read, and a setting that its run cannot carry out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._kernels import LOSS_KINDS
from .graph import PATTERN_MODES, _lines
from .kernels import KernelSpec

METHODS = ("mkl", "kl", "gk_df", "gk_bl", "knn")
SCENARIOS = ("diffusion", "connectivity", "connectivity_anchored", "identity")

_DEFAULT_MU_GRID = tuple(10.0**-k for k in range(7, -1, -1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field has a config-file key."""

    n_nodes: int = 200
    edge_prob: float = 0.2
    scenario: str = "diffusion"
    truth_sigma2: float = 5.0
    noise_var: float = 0.01
    sample_fraction: float = 0.05
    trials: int = 10
    base_seed: int = 0
    kernels: tuple[tuple[str, float], ...] = (("gaussian", 1.0), ("gaussian", 5.0))
    d: int = 100
    eta: float | str = 0.5
    mu_grid: tuple[float, ...] = _DEFAULT_MU_GRID
    loss: str = "least_squares"
    methods: tuple[str, ...] = ("mkl", "kl", "knn")
    normalize_patterns: bool = True
    standardize_labels: bool = True
    pattern_mode: str = "column"
    kl_sigma2: float = 5.0
    gk_sigma2_grid: tuple[float, ...] = (1.0, 5.0, 10.0)
    band_grid: tuple[int, ...] = (2, 5, 10)
    cv_fraction: float = 0.25
    measure_runtime: bool = False
    timing_reps: int = 5
    timing_nodes: int = 20
    regret_T: int = 2000
    regret_mu: float = 1e-6
    edge_list: str | None = None
    labels: str | None = None
    directed: bool = False
    weighted: bool = False
    symmetrize: bool = True
    sample_counts: tuple[int, ...] | None = None
    bench_sizes: tuple[int, ...] = (500, 1000, 2000)

    def __post_init__(self):
        # only a bool key takes a bool: isinstance(True, int) holds and the range
        # checks read True as 1, so a bool would run as 0 or 1 (KernelSpec
        # refuses one as a bandwidth)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "bool" and bool in map(type, value if type(value) is tuple else (value,)):
                raise ValueError(f"{f.name} takes no bool, got {value!r}")
            # a value of another type would fail mid-run, or a bool key run it
            # as true or false
            if not _ADMITS[f.type](value):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        # an int key refuses a float, which would fail mid-trial
        for key in ("n_nodes", "trials", "d", "regret_T", "timing_reps", "timing_nodes", "base_seed",
                    "bench_sizes", "sample_counts", "band_grid"):
            value, least = getattr(self, key), 0 if key == "base_seed" else 1
            tuple_key = key in ("bench_sizes", "sample_counts", "band_grid")
            if not all(isinstance(v, int) and v >= least for v in (value or () if tuple_key else (value,))):
                what = "entries must be integers" if tuple_key else "must be an integer"
                raise ValueError(f"{key} {what} >= {least}, got {value!r}")
        for key in ("methods", "bench_sizes", "sample_counts"):
            values = getattr(self, key) or ()
            if len(set(values)) != len(values):
                raise ValueError(f"{key} entries must be distinct")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.eta != "auto" and not (isinstance(self.eta, (int, float)) and 0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be 'auto' or a number in (0, 1], got {self.eta!r}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}; valid: {LOSS_KINDS}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0.0 <= self.cv_fraction < 1.0:
            raise ValueError("cv_fraction must be in [0, 1)")
        for key in ("kernels", "methods", "mu_grid", "gk_sigma2_grid", "band_grid", "bench_sizes"):
            if not getattr(self, key):
                raise ValueError(f"{key} must be non-empty")
        if self.sample_counts is not None and not len(self.sample_counts):
            raise ValueError("sample_counts must be non-empty; leave it out to sample by sample_fraction")
        # math.isfinite first, so that nan and inf are refused too
        for key, bound in (("noise_var", ">= 0"), ("regret_mu", ">= 0"), ("mu_grid", ">= 0"),
                           ("truth_sigma2", "> 0"), ("kl_sigma2", "> 0"), ("gk_sigma2_grid", "> 0")):
            value = getattr(self, key)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) and (v >= 0.0 if bound == ">= 0" else v > 0.0) for v in values):
                entries = " entries" if isinstance(value, tuple) else ""
                raise ValueError(f"{key}{entries} must be finite and {bound}")
        # a step multiplies theta by 1 - 2 eta mu: past 2 eta mu = 1 each step
        # flips theta's sign, and past 2 eta mu = 2 theta grows without bound
        if self.eta != "auto" and 2.0 * self.eta * max(self.mu_grid) > 1.0:
            raise ValueError(f"mu_grid entries must be <= 1/(2 eta) = {0.5 / self.eta!r} at eta = {self.eta!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; valid: {SCENARIOS}")
        if self.pattern_mode not in PATTERN_MODES:
            raise ValueError(f"unknown pattern_mode {self.pattern_mode!r}; valid: {PATTERN_MODES}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {METHODS}")
        try:
            self.kernel_specs()
        except ValueError as exc:
            raise ValueError(f"kernels: {exc}") from exc

    def kernel_specs(self) -> tuple[KernelSpec, ...]:
        return tuple(KernelSpec(family, bw) for family, bw in self.kernels)

    def eta_value(self, horizon: int) -> float:
        return 1.0 / math.sqrt(horizon) if self.eta == "auto" else float(self.eta)


def _parse_bool(value):
    """Text as a bool; any other value as it is, for the config's own check."""
    if not isinstance(value, str):
        return value
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _int(value):
    """Text as an int; any other value as it is, for the config's own check."""
    return int(value) if isinstance(value, str) else value


def _float(value):
    """A value as a float; a bool as it is, for the config's own check."""
    return value if isinstance(value, bool) else float(value)


def _tuple_of(cast):
    def parse(value):
        items = value.split(",") if isinstance(value, str) else value
        return tuple(cast(v.strip() if isinstance(v, str) else v) for v in items if str(v).strip())

    return parse


def _kernel_entry(entry):
    """One ``family:bandwidth`` entry of the ``kernels`` key as (family, bandwidth)."""
    if not isinstance(entry, str):
        return entry
    family, _, bw = entry.partition(":")
    if not bw:
        raise ValueError(f"kernel entry {entry!r} must look like family:bandwidth")
    return family.strip(), float(bw)


def _entries(admits):
    """A check that a value is a tuple and that ``admits`` admits each entry."""
    return lambda value: type(value) is tuple and all(map(admits, value))


def _number(value) -> bool:
    return isinstance(value, (int, float))


# What a value of each field annotation of ExperimentConfig may be.  An int
# key and eta admit any value here: their own checks name one of another
# type, as they name one out of range.
_ADMITS = {
    "bool": lambda value: isinstance(value, bool),
    "int": lambda value: True,
    "float": _number,
    "str": lambda value: isinstance(value, str),
    "str | None": lambda value: value is None or isinstance(value, str),
    "float | str": lambda value: True,
    "tuple[tuple[str, float], ...]": _entries(
        lambda pair: type(pair) is tuple and len(pair) == 2 and isinstance(pair[0], str) and _number(pair[1])
    ),
    "tuple[str, ...]": _entries(lambda value: isinstance(value, str)),
    "tuple[float, ...]": _entries(_number),
    "tuple[int, ...]": lambda value: type(value) is tuple,
    "tuple[int, ...] | None": lambda value: value is None or type(value) is tuple,
}

# One parser per field annotation of ExperimentConfig.
_PARSERS = {
    "bool": _parse_bool,
    "int": _int,
    "float": _float,
    "str": lambda value: value,
    "str | None": lambda value: value,
    "float | str": lambda value: value if value == "auto" else _float(value),
    "tuple[tuple[str, float], ...]": _tuple_of(_kernel_entry),
    "tuple[str, ...]": _tuple_of(str),
    "tuple[float, ...]": _tuple_of(_float),
    "tuple[int, ...]": _tuple_of(_int),
    "tuple[int, ...] | None": lambda value: None if value is None else _tuple_of(_int)(value),
}


def config_from_dict(entries: dict) -> ExperimentConfig:
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in entries.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS[types[key]](raw.strip() if isinstance(raw, str) else raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file ('#' starts a comment); no key
    may be set twice."""
    entries = {}
    first_line: dict[str, int] = {}
    for lineno, line in _lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"line {lineno}: config key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        entries[key] = value.strip()
    return config_from_dict(entries)


# The config keys each run reads under some setting of the others.  A run
# refuses, before any trial, every other key set away from its default, so
# that no report echoes a setting that had no effect.
_TRIAL_KEYS = ("base_seed kernels d eta mu_grid loss methods normalize_patterns standardize_labels pattern_mode "
               "kl_sigma2 gk_sigma2_grid band_grid cv_fraction timing_reps timing_nodes")
_DRAW_KEYS = "edge_prob scenario truth_sigma2 noise_var"
RUN_KEYS = {run: frozenset(keys.split()) for run, keys in {
    "synthetic": f"{_TRIAL_KEYS} {_DRAW_KEYS} sample_fraction n_nodes trials measure_runtime",
    "dataset": f"{_TRIAL_KEYS} edge_list labels directed weighted symmetrize sample_counts sample_fraction "
               "trials measure_runtime",
    "regret": f"{_DRAW_KEYS} base_seed kernels d eta loss normalize_patterns standardize_labels pattern_mode "
              "n_nodes trials regret_T regret_mu",
    "bench-newnode": f"{_TRIAL_KEYS} {_DRAW_KEYS} sample_fraction bench_sizes",
}.items()}


def _check_run(config: ExperimentConfig, run: str) -> None:
    """Refuse, before any trial or file read, every key set away from its
    default that ``run`` does not read, a loss that a random-graph run's
    real-valued signal cannot train, an anchored truth for a regret run,
    and a dataset run without both input files or with a graph kernel on
    the directed graph it would load."""
    unread = [f"{f.name}, got {list(value) if isinstance(value, tuple) else value!r}" for f in fields(config)
              if f.name not in RUN_KEYS[run] and (value := getattr(config, f.name)) != f.default]
    if unread:
        raise ValueError(f"{run} runs ignore {'; '.join(unread)}: leave {'it' if len(unread) == 1 else 'them'} out")
    if run != "dataset" and config.loss != "least_squares":
        raise ValueError(f"{run} runs require the least-squares loss, got loss = {config.loss!r}")
    if run == "regret" and config.scenario == "connectivity_anchored":
        raise ValueError("regret runs stream whole patterns; use another scenario")
    if run == "dataset" and not (config.edge_list and config.labels):
        raise ValueError("dataset runs need edge_list and labels paths")
    # only a dataset run reads directed, and the graph it loads is directed
    # exactly when it is not symmetrised
    for method in config.methods if config.directed and not config.symmetrize else ():
        if method in ("gk_df", "gk_bl"):
            raise ValueError(f"{method} requires an undirected graph")
