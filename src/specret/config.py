"""Experiment configuration: a single JSON document, validated against
CONFIG_SCHEMA, with CLI flags overriding fields one-to-one.

CONFIG_SCHEMA is a JSON Schema (Draft 2020-12) table that uses nine
keywords: type, enum, properties, additionalProperties (false only),
required, minimum, exclusiveMinimum, items and minItems.  `_validate`
walks it directly, with JSON Schema's typing: a bool is neither a number
nor an integer, a float with no fractional part such as 1.0 is an
integer, and an enum never matches a bool (the table's enums hold only
strings, so Python equality already ensures that).

`load_config` validates the document once and the given CLI overrides
once, then merges them over the defaults.  The defaults are valid
constants and the merge only replaces or adds validated parts, so the
merged config is not validated again.  The tests check the walker
against the jsonschema package on generated documents.
"""
from __future__ import annotations

import json

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "signal": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["chirp", "mixture", "wav"]},
                "path": {"type": "string"},
            },
            "required": ["kind"],
        },
        "scheme": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["frft_gauss", "hermite"]},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "n_windows": {"type": "integer", "minimum": 1},
                "angles": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "degrees": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 1,
                },
            },
            "required": ["kind"],
        },
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "model": {"enum": ["none", "additive", "multiplicative"]},
                "level": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["model"],
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "L": {"type": "integer", "minimum": 2},
            },
            "required": ["T", "L"],
        },
        "anchor": {"type": ["integer", "null"]},
        "algorithm": {"enum": ["alg1", "alg2"]},
        "out": {"type": "string"},
        "emit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "boolean"},
                "pgm": {"type": "boolean"},
                "json": {"type": "boolean"},
                "wav": {"type": "boolean"},
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "degree_min": {"type": "integer", "minimum": 0},
                "degree_max": {"type": "integer", "minimum": 0},
                "trials": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

DEFAULTS = {
    "signal": {"kind": "chirp"},
    "scheme": {"kind": "frft_gauss", "a": 15.0, "n_windows": 40},
    "epsilon": 1e-3,
    "noise": {"model": "none"},
    "grid": {"T": 8.0, "L": 1024},
    "anchor": None,
    "algorithm": None,  # resolved from the scheme when absent
    "out": "out",
    "emit": {"csv": True, "pgm": True, "json": True, "wav": False},
    "study": {"count": 6, "degree_min": 0, "degree_max": 50, "trials": 100},
    "seed": 0,
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional JSON document, and CLI overrides."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        _validate(doc)
        _merge(cfg, doc)
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    _validate(overrides)
    _merge(cfg, overrides)
    _check_semantics(cfg)
    return cfg


def _reject_constant(token: str):
    # Python's json accepts NaN and Infinity, which JSON itself does not, and
    # NaN compares false against every schema bound
    raise ConfigError(f"config holds the non-finite number {token}")


def _finite_float(text: str) -> float:
    value = float(text)  # a JSON number literal is never NaN, but may overflow
    if abs(value) == float("inf"):
        raise ConfigError(f"config number {text} is out of the float range")
    return value


_UNION_KEYS = ("signal", "scheme", "noise")  # replaced whole, never merged


def _merge(base: dict, extra: dict):
    for key, value in extra.items():
        if key not in _UNION_KEYS and isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key].update(value)
        else:
            base[key] = value


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _is(value, name: str) -> bool:
    if name in _TYPES:
        return isinstance(value, _TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return name == "number" or isinstance(value, int) or value.is_integer()


def _validate(value, schema: dict = CONFIG_SCHEMA, where: str = "document"):
    """Raise a one-line ConfigError naming the first field of `value` that
    breaks `schema`."""
    def fail(why: str):
        raise ConfigError(f"invalid config: {where}: {why}")

    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is(value, t) for t in types):
        fail(f"{value!r} is not of type {' or '.join(types)}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']}")
    if _is(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value!r} is less than the minimum of {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is not greater than {schema['exclusiveMinimum']}")
    if _is(value, "array"):
        if len(value) < schema.get("minItems", 0):
            fail(f"has {len(value)} items, fewer than the minimum of {schema['minItems']}")
        for i, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{where}[{i}]")
    if _is(value, "object"):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                fail(f"missing the required field {key!r}")
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], key if where == "document" else f"{where}.{key}")
            elif schema.get("additionalProperties") is False:
                fail(f"unknown field {key!r}")


def _check_semantics(cfg: dict):
    grid = cfg["grid"]
    if grid["L"] % 2 != 0:
        raise ConfigError(f"grid L must be even, got {grid['L']}")
    scheme = cfg["scheme"]
    if scheme["kind"] == "frft_gauss":
        if "a" not in scheme:
            raise ConfigError("frft_gauss scheme needs the dilation 'a'")
        if "n_windows" not in scheme and "angles" not in scheme:
            raise ConfigError("frft_gauss scheme needs 'n_windows' or 'angles'")
    else:
        degrees = scheme.get("degrees")
        if not degrees:
            raise ConfigError("hermite scheme needs a 'degrees' list")
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            raise ConfigError(f"hermite degrees must be strictly increasing: {degrees}")
    if cfg["signal"]["kind"] == "wav" and "path" not in cfg["signal"]:
        raise ConfigError("wav signal needs a 'path'")
    noise = cfg["noise"]
    if noise["model"] != "none" and "level" not in noise:
        raise ConfigError(f"{noise['model']} noise needs a 'level'")
    study = cfg["study"]
    span = study["degree_max"] - study["degree_min"] + 1
    if span < study["count"]:
        raise ConfigError(
            f"cannot draw {study['count']} distinct degrees from a range of {span}"
        )
