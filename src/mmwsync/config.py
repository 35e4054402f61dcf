"""Scenario configuration: the schema, whose annotations and checks are its
rules, its hash, and the YAML parser, which fails closed naming the key."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import optimizer, quantization, waveform


def _check_fields(config, prefix: str = "", least: dict[str, float] | None = None,
                  most: dict[str, float] | None = None) -> None:
    """Each field's annotation is its rule, checked before any comparison.

    An ``int`` field, and each entry of a ``tuple[int, ...]``, is an integer;
    a ``float`` field, and each entry of a ``tuple[float, float]``, is a
    finite real number; each entry of a ``tuple[float, ...]`` grid is a real
    number, bounded by the grid's own rule.  A bool or a string is neither.
    A fixed-length tuple holds that many entries and a grid at least one, and
    no tuple repeats an entry (a repeat counts each trial twice in one
    aggregate, or merges two arms).  Every entry of a field named in
    ``least`` (``most``) is at least (at most) that value; NaN is neither.
    """
    for f in fields(config):  # the annotations are strings (postponed evaluation)
        key, value, kind = prefix + f.name, getattr(config, f.name), f.type
        scalar = kind in ("int", "float")
        if not (scalar or kind.startswith("tuple[")):
            continue
        kinds = [kind] if scalar else kind[len("tuple["):-1].split(", ")
        entries = (value,) if scalar else value
        grid = kinds[-1] == "..."
        number = numbers.Integral if kinds[0] == "int" else numbers.Real
        if not (isinstance(entries, tuple) and (grid or len(entries) == len(kinds)) and all(
            isinstance(v, number) and not isinstance(v, bool)
            and (grid or number is numbers.Integral or math.isfinite(v)) for v in entries
        )):
            what = "an integer" if kinds[0] == "int" else "a real number" if grid else "a finite real number"
            rule = what if scalar else f"{kind} holding {what} in each entry"
            raise ValueError(f"{key} must be {rule}, got {value!r}")
        if not entries or len(set(entries)) != len(entries):
            raise ValueError(f"{key} must hold at least one entry and repeat none, got {value}")
        for bounds, holds, word in ((least, operator.ge, ">="), (most, operator.le, "<=")):
            if f.name in (bounds or {}) and not all(holds(v, bounds[f.name]) for v in entries):
                raise ValueError(f"{key} must be {word} {bounds[f.name]}{'' if scalar else ' in each entry'}, "
                                 f"got {value}")


@dataclass(frozen=True)
class SectorConfig:
    azimuth_deg: tuple[float, float] = (-60.0, 60.0)

    def __post_init__(self):
        # a ULA sees sin(az) alone, so past +-90 deg (its visible region) a sector folds back on itself
        _check_fields(self, "sector.", least={"azimuth_deg": -90.0}, most={"azimuth_deg": 90.0})
        lo, hi = self.azimuth_deg
        if not lo < hi:
            raise ValueError(f"sector.azimuth_deg must be two increasing angles, got {(lo, hi)}")


@dataclass(frozen=True)
class ChannelConfig:
    regime: str = "flat"  # flat | clustered, whose shape constants live in ``channel``

    def __post_init__(self):
        if self.regime not in ("flat", "clustered"):
            raise ValueError(f"unknown channel.regime {self.regime!r}; choose flat or clustered")


@dataclass(frozen=True)
class CellConfig:
    radius_m: float = 150.0
    isd_m: float = 500.0
    min_distance_m: float = 20.0
    roots: tuple[int, int, int] = (25, 29, 34)

    def __post_init__(self):
        # 1 mm (under a carrier wavelength) to 1e7 m (past any cell): a drop's squared radius stays in
        # [1e-6, 1e14], never 0 or inf, and its path gain, set by a length ratio >= ~1e-8, stays below
        # 1e13 before shadowing, which would need a draw of hundreds of sigma to overflow it
        _check_fields(self, "cell.", least={"radius_m": 1e-3, "isd_m": 1e-3, "min_distance_m": 0},
                      most={"radius_m": 1e7, "isd_m": 1e7, "min_distance_m": 1e7})


@dataclass(frozen=True)
class Scenario:
    """Resolved experiment configuration; defaults follow the reference numerology."""

    mode: str = "single_ue"  # single_ue | multi_ue_cell | multi_cell
    n_subcarriers: int = 512
    n_tot: int = 32
    n_rf: int = 4
    m_tot: int = 16
    codebook_oversampling: int = 2
    t_bs: int = 8
    t_ue: int = 10
    adc_bits: tuple[float, ...] = (2.0, math.inf)
    snr_db_grid: tuple[float, ...] = (0.0,)
    cfo_grid: tuple[float, ...] = (0.0,)
    trials: int = 2000
    inner_repeats: int = 64
    seed: int = 1
    lambda_max_inv_db: float = -20.0
    sector: SectorConfig = field(default_factory=SectorConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    cell: CellConfig = field(default_factory=CellConfig)

    def __post_init__(self):
        # a window needs noise-only lags (t_ue), an SQNR estimate a variance (inner_repeats), a grid
        # longer than the prefix also holds the sequence (N_ZC < CP_LENGTH), and past +-3000 dB
        # lambda_max, sigma^2 or the noise powers taken from it leave the float range
        _check_fields(self, least={"n_subcarriers": waveform.CP_LENGTH + 1, "n_tot": 1, "n_rf": 1, "m_tot": 1,
                                   "codebook_oversampling": 1, "t_bs": 1, "t_ue": 2, "trials": 1,
                                   "inner_repeats": 2, "seed": 0, "lambda_max_inv_db": -3000.0,
                                   "snr_db_grid": -3000.0},
                      most={"lambda_max_inv_db": 3000.0})
        if self.mode not in ("single_ue", "multi_ue_cell", "multi_cell"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_tot % self.n_rf != 0:
            raise ValueError("n_tot must be a multiple of n_rf")
        for chains in (self.n_rf, 1):
            n_beam = self.n_tot // chains * self.codebook_oversampling
            # n_beam >= 2 passes the budget by 21 chains, so the power need go no higher
            if n_beam > 1 and n_beam ** min(chains, 21) > optimizer.SEARCH_BUDGET:
                raise ValueError(
                    f"n_tot = {self.n_tot}, n_rf = {self.n_rf} and codebook_oversampling = "
                    f"{self.codebook_oversampling} give the {chains}-chain beam search {n_beam}^{chains} "
                    f"candidates, above optimizer.SEARCH_BUDGET = {optimizer.SEARCH_BUDGET}")
        n_zc = waveform.N_ZC
        for root in self.cell.roots:
            if not 1 <= root < n_zc or math.gcd(root, n_zc) != 1:
                raise ValueError(f"cell.roots must be in [1, {n_zc}) and coprime with {n_zc}, got {root}")
        # the CFO ramp exp(j 2 pi eps n / N) has period N in eps, so a wider eps only aliases
        if not all(2 * abs(eps) <= self.n_subcarriers for eps in self.cfo_grid):  # NaN fails it
            raise ValueError(f"cfo_grid must lie within +-n_subcarriers / 2 in each entry, "
                             f"got {list(self.cfo_grid)}")
        for b in self.adc_bits:
            if b != math.inf and not (1 <= b <= quantization.MAX_BITS and b == int(b)):  # NaN fails the range
                raise ValueError(f"adc_bits must be integers in [1, {quantization.MAX_BITS}] or inf, got {b}")
        cell = self.cell
        if self.mode == "multi_cell":
            limit, name = cell.isd_m / 2, "cell.isd_m / 2"
        else:
            limit, name = cell.radius_m, "cell.radius_m"
        if not cell.min_distance_m < limit:
            raise ValueError(f"cell.min_distance_m must be below {name} = {limit}, got {cell.min_distance_m}")
        lo, hi = self.sector.azimuth_deg
        if self.mode != "single_ue" and lo != -hi:
            # the cell modes drop users over +-hi, so the anchors must span the same sector
            raise ValueError(
                f"sector.azimuth_deg must be symmetric in mode {self.mode!r}, got {(lo, hi)}"
            )

    @property
    def lambda_max(self) -> float:
        return 10.0 ** (-self.lambda_max_inv_db / 10.0)


def scenario_hash(scenario: Scenario) -> str:
    """Digest of the scenario's JSON form.

    Not cached: equal scenarios can differ in form (adc_bits 2 and 2.0), and
    a cache keyed on equality would hand one the other's digest.
    """
    blob = json.dumps(asdict(scenario), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _reject_repeated_keys(root: yaml.Node | None) -> None:
    """Name, with its section prefix, a key written twice in one mapping.

    The key nodes are read as written, before any merge (``<<``) is applied;
    a mapping reached again through an alias is walked once.
    """
    import yaml  # loaded by the parser alone: a Scenario built in code never needs it

    stack, walked = [(root, "")], set()
    while stack:
        node, prefix = stack.pop()
        if not isinstance(node, yaml.MappingNode) or id(node) in walked:
            continue
        walked.add(id(node))
        written = set()
        for key, value in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in written:
                    raise ValueError(f"configuration key {prefix + key.value!r} is written twice")
                written.add((key.tag, key.value))
                stack.append((value, f"{prefix}{key.value}."))


def parse_config(path: str | Path) -> Scenario:
    """Load and validate a scenario file; defaults fill unspecified keys.

    A key written twice in one mapping is rejected (PyYAML keeps the last).
    A field with a ``default_factory`` is a section, built as the file is,
    by recursion, and its keys are named with the section's prefix.
    """
    import yaml

    loader = yaml.SafeLoader(Path(path).read_text())
    root = loader.get_single_node()
    _reject_repeated_keys(root)
    raw = None if root is None else loader.construct_document(root)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"scenario file {path} must hold a mapping")

    def build(cls, data: dict, prefix: str):
        known = {f.name: f.default_factory for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in known:  # formatted, not added: YAML 1.1 reads the keys on: and 1: as True and 1
                raise ValueError(f"unknown configuration key {f'{prefix}{key}'!r}")
            if known[key] is not MISSING:
                if not isinstance(value, dict):
                    raise ValueError(f"section {prefix + key!r} must be a mapping")
                value = build(known[key], value, f"{prefix}{key}.")
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)

    return build(Scenario, raw, "")
