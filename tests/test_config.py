"""The config walker against the jsonschema package, run on the same table."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specret.config import CONFIG_SCHEMA, ConfigError, _validate

jsonschema = pytest.importorskip("jsonschema")

# jsonschema.validate(doc, CONFIG_SCHEMA) checks the schema, then validates
# with the validator class the schema selects (Draft 2020-12); the schema
# check is done once here, since it costs about 200 validations
ORACLE_CLASS = jsonschema.validators.validator_for(CONFIG_SCHEMA)
ORACLE_CLASS.check_schema(CONFIG_SCHEMA)
ORACLE = ORACLE_CLASS(CONFIG_SCHEMA)

ODD = st.sampled_from([None, "", "x", [], {}, {"kind": "x"}])  # nulls, wrong nested types
EDGE = st.sampled_from([True, False, 0, 0.0, -1, -0.5, 0.5, 1.0, 2.0, 1e-300])  # bools, 1.0
VALID = {
    "number": st.floats(0.01, 10) | st.integers(1, 10),
    "integer": st.integers(2, 10) | st.integers(2, 10).map(float),
    "string": st.sampled_from(["out", "x.wav"]),
    "boolean": st.booleans(),
    "null": st.none(),
}


def mostly(valid, odd, odds: int):
    """`valid`, except about one draw in `odds` comes from `odd`."""
    return st.integers(1, odds).flatmap(lambda k: odd if k == 1 else valid)


def near(schema: dict):
    """Values shaped by `schema`, most of them valid, the rest with one or
    a few defects: odd values, missing required keys, an unknown key, or an
    empty array."""
    if "properties" in schema:
        fields = {key: near(sub) for key, sub in schema["properties"].items()}
        required = {key: fields[key] for key in schema.get("required", [])}
        optional = {key: sub for key, sub in fields.items() if key not in required}
        shaped = st.integers(0, 39).flatmap(lambda k: (
            st.fixed_dictionaries({}, optional=fields) if k == 0  # required keys may be missing
            else st.fixed_dictionaries({**required, "unknown": EDGE}, optional=optional) if k == 1
            else st.fixed_dictionaries(required, optional=optional)))
    elif "items" in schema:
        shaped = mostly(st.lists(near(schema["items"]), min_size=1, max_size=3), st.just([]), 8)
    elif "enum" in schema:
        shaped = mostly(st.sampled_from(schema["enum"]), EDGE | st.just("other"), 48)
    else:
        types = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        valid = st.one_of(*[VALID[t] for t in types])
        bounds = [schema[key] for key in ("minimum", "exclusiveMinimum") if key in schema]
        edge = st.one_of(EDGE, *[st.sampled_from([b, float(b)]) for b in bounds])
        shaped = mostly(valid, edge, 10) if {"number", "integer"} & set(types) else valid
    return mostly(shaped, ODD, 128)


DOCS = near(CONFIG_SCHEMA)


def accepts(doc) -> bool:
    try:
        _validate(doc)
    except ConfigError as exc:
        assert len(str(exc).splitlines()) == 1
        return False
    return True


@settings(max_examples=250, deadline=None)
@given(doc=DOCS)
def test_walker_matches_jsonschema(doc):
    assert accepts(doc) == ORACLE.is_valid(doc)


@pytest.mark.parametrize("doc, valid", [
    ({"grid": {"T": 1, "L": 2.0}}, True),      # 1.0 is an integer
    ({"grid": {"T": True, "L": 2}}, False),    # a bool is no number
    ({"seed": False}, False),                  # nor an integer
    ({"algorithm": True}, False),              # an enum never matches a bool
    ({"anchor": None}, True),
    ({"scheme": {"kind": "hermite", "degrees": []}}, False),
    ({"emit": {"csv": 1}}, False),
])
def test_json_schema_typing(doc, valid):
    assert accepts(doc) == valid == ORACLE.is_valid(doc)


@pytest.mark.parametrize("doc, field", [
    ({"epsilon": -1.0}, "epsilon"),
    ({"mystery": 1}, "mystery"),
    ({"grid": {"T": 1}}, "grid"),
    ({"grid": {"T": 1, "L": 64, "dt": 1}}, "dt"),
    ({"scheme": {"kind": "hermite", "degrees": [0, -1]}}, "scheme.degrees[1]"),
    ({"noise": {"model": "poisson"}}, "noise.model"),
])
def test_errors_name_the_field(doc, field):
    with pytest.raises(ConfigError, match=field.replace("[", r"\[")) as caught:
        _validate(doc)
    assert len(str(caught.value).splitlines()) == 1
