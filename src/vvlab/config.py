"""The experiment config: its keys, their readers, the nested file layout and
the ``--path.to.key value`` overrides.

A config file is a YAML tree; ``ExperimentConfig.from_nested`` reads it into
one flat record and validates it, and ``to_nested`` writes it back for the
report. Every value that cannot be read or used is a ``ConfigError`` naming
its dotted key.
"""

from __future__ import annotations

import inspect
import math
from copy import copy
from dataclasses import MISSING, dataclass, field as dc_field, fields

from vvlab.fields import Grid2D
from vvlab.highs import highs_core
from vvlab.initial_data import GENERATORS, KINDS


class ConfigError(ValueError):
    pass


def _key(path: str, read, default=MISSING, **kw):
    """A config field: its dotted file key, its reader, and its default if the key is optional."""
    return dc_field(default=default, metadata={"path": path, "read": read}, **kw)


def _whole(value, key: str) -> int:
    """An integer config value; a fraction or a boolean is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A finite float config value. Strings are read: YAML loads ``1e-4`` as one."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _numbers(value, key: str) -> list:
    """A list of float config values; a string or a mapping is refused, not iterated."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _flag(value, key: str) -> bool:
    """A boolean config value; ``bool()`` would read the string "no" as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _text(value, key: str) -> str:
    """A string config value; YAML reads ``null`` as None, which ``Path`` refuses."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _mapping(value, key: str) -> dict:
    """A section or free-form mapping; null (``--transport null``, an empty block) is refused."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return dict(value)


@dataclass
class ExperimentConfig:
    initial_kind: str = _key("initial_data.kind", _text)
    n: int = _key("grid.n", _whole)
    length: float = _key("grid.length", _number)
    nu_ladder: list = _key("nu_ladder", _numbers)
    times: list = _key("times", _numbers)
    dt: float = _key("solver.dt", _number)
    name: str = _key("name", _text, "experiment")
    initial_params: dict = _key("initial_data.params", _mapping, default_factory=dict)
    record_every: int = _key("solver.record_every", _whole, 10)
    n_particles: int = _key("particles.count", _whole, 2000)
    transport_method: str = _key("transport.method", _text, "sinkhorn")
    transport_epsilon: float = _key("transport.epsilon", _number, 1e-4)
    max_support: int = _key("transport.max_support", _whole, 600)
    seed: int = _key("seed", _whole, 0)
    output_dir: str = _key("output_dir", _text, "runs")
    allow_unresolved: bool = _key("allow_unresolved", _flag, False)
    check_resolution: bool = _key("check_resolution", _flag, False)

    def validate(self) -> None:
        nus = list(self.nu_ladder)
        if not nus:
            raise ConfigError("nu_ladder must hold at least one viscosity")
        if any(not (0 < nu < 1) for nu in nus):
            raise ConfigError("all viscosities must lie in (0, 1)")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ConfigError("nu_ladder must be strictly decreasing")
        if not self.times or any(not 0 < t < math.inf for t in self.times):
            raise ConfigError("evaluation times must be positive and finite")
        if self.initial_kind not in KINDS:
            raise ConfigError(f"unknown initial data kind {self.initial_kind!r}; choose from {KINDS}")
        accepted = list(inspect.signature(GENERATORS[self.initial_kind]).parameters)[1:]
        unknown = sorted(set(self.initial_params) - set(accepted))
        if unknown:
            raise ConfigError(
                f"initial data {self.initial_kind!r} takes no parameter {unknown}; accepted: {accepted}"
            )
        self.generator_params()
        if self.transport_method not in ("exact", "sinkhorn"):
            raise ConfigError(f"unknown transport method {self.transport_method!r}")
        if self.transport_method == "exact":
            highs_core()  # HiGHS loads with the config, not inside the run
        if not self.transport_epsilon > 0:
            raise ConfigError(f"transport epsilon must be > 0, got {self.transport_epsilon}")
        if self.max_support < 1:
            raise ConfigError(f"transport max_support must be >= 1, got {self.max_support}")
        if not self.dt > 0:
            raise ConfigError(f"solver dt must be > 0, got {self.dt}")
        if self.record_every < 1:
            raise ConfigError(f"solver record_every must be >= 1, got {self.record_every}")
        self.schedule()
        if self.n_particles < 1:
            raise ConfigError(f"particles count must be >= 1, got {self.n_particles}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            grid = Grid2D(self.n, self.length)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not self.resolved_scale_ok() and not self.allow_unresolved:
            raise ConfigError(
                f"resolved-scale condition sqrt(min nu * max t) >= spacing fails "
                f"({math.sqrt(min(nus) * max(self.times)):.3e} < {grid.spacing:.3e}); "
                "set allow_unresolved to override (the report will be flagged)"
            )

    def resolved_scale_ok(self) -> bool:
        grid = Grid2D(self.n, self.length)
        return math.sqrt(min(self.nu_ladder) * max(self.times)) >= grid.spacing

    def generator_params(self) -> dict:
        """``initial_params`` as the initial data's generator takes them, each
        read by its default's type: ``_number`` for a float, ``_whole`` for an int.
        The stored values stay as given, so the report's config is unchanged."""
        defaults = inspect.signature(GENERATORS[self.initial_kind]).parameters
        read = {float: _number, int: _whole}
        return {name: read[type(defaults[name].default)](value, f"initial_data.params.{name}")
                for name, value in self.initial_params.items()}

    def schedule(self) -> dict:
        """{solver step: evaluation time}, the times snapped onto the snapshot grid
        (record_every * dt), in the config's order. A time off that grid is refused,
        and so are two times on one snapshot, which would give the fit the same rows twice."""
        snap_dt = self.record_every * self.dt
        at_step = {}
        for t in self.times:
            k = round(t / snap_dt)
            if k < 1 or abs(k * snap_dt - t) > 1e-9 * max(t, snap_dt):
                raise ConfigError(f"evaluation time {t} is not a multiple of the "
                                  f"snapshot interval {snap_dt} (record_every * dt)")
            at_step[k * self.record_every] = k * snap_dt
        if len(at_step) < len(self.times):
            raise ConfigError(f"evaluation times must not repeat, got {list(self.times)}")
        return at_step

    # -- nested (file) representation ------------------------------------

    @classmethod
    def from_nested(cls, tree: dict) -> "ExperimentConfig":
        if not isinstance(tree, dict):
            raise ConfigError(f"experiment config must be a mapping, got {type(tree).__name__}")
        keys = {f.metadata["path"]: f for f in fields(cls)}
        flat = dict(_flatten(tree, _nest(dict.fromkeys(keys).items())))
        unknown = [path for path in flat if path not in keys]
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}")
        missing = [path for path, f in keys.items()
                   if path not in flat and f.default is f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"malformed experiment config: missing required key(s) {missing}")
        try:
            kwargs = {f.name: f.metadata["read"](flat[path], path)
                      for path, f in keys.items() if path in flat}
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed experiment config: {e}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_nested(self) -> dict:
        return _nest((f.metadata["path"], copy(getattr(self, f.name))) for f in fields(self))


def _nest(items) -> dict:
    """A tree from (dotted path, value) pairs."""
    tree = {}
    for path, value in items:
        *sections, key = path.split(".")
        node = tree
        for s in sections:
            node = node.setdefault(s, {})
        node[key] = value
    return tree


def _flatten(tree: dict, layout: dict, prefix: str = ""):
    """(dotted path, value) pairs of a config tree. A section of ``layout`` is
    walked and must be a mapping. Any other key is a leaf, so an unknown section
    is named on its own and ``initial_data.params`` stays whole."""
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(layout.get(key), dict):
            yield from _flatten(_mapping(value, path), layout[key], path + ".")
        else:
            yield path, value


def parse_overrides(extra: list[str]) -> list[tuple[str, str]]:
    """Flags of the form ``--grid.n 256`` mirror config paths."""
    out = []
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unrecognized argument {tok!r} (expected --path.to.key value)")
        if "=" in tok:
            path, raw = tok[2:].split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extra):
                raise ConfigError(f"missing value for override {tok!r}")
            path, raw = tok[2:], extra[i + 1]
            i += 2
        out.append((path, raw))
    return out


def apply_override(tree: dict, path: str, raw: str) -> None:
    """Set a nested config key from a dotted path with a YAML-parsed value."""
    import yaml

    keys = path.split(".")
    node = tree
    for k in keys[:-1]:
        if not isinstance(node, dict):
            break
        node = node.setdefault(k, {})
    if not isinstance(node, dict):
        raise ConfigError(f"config path {path!r} crosses a non-mapping node")
    try:
        node[keys[-1]] = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"override --{path}: {e}") from e
