"""The shipped schemas are draft-07, and draft-07 enforces every rule they
state; the run record's numbers are checked by ``check_record_numbers``.

Draft-07 ignores keywords it does not know, and the siblings of a
``$ref``, so a guard walks both schemas for either.  Every rule of the v1
run record has a mutation that ``run_experiment`` and ``load_records`` must
reject.  The record schema plus the numeric check give the same verdicts
on that corpus, and on every single-field mutation of a small record, as
the v1 schema that held the numeric rules itself (frozen in
``data/run_record_v1_full.schema.json``), read as draft-07 and as 2020-12,
the dialect it was written in before.  The one designed difference is a
NaN or infinite number, which the numeric check rejects.
"""

import copy
import functools
import json
import math
import operator
from pathlib import Path

import jsonschema
import pytest
from jsonschema import Draft7Validator, Draft202012Validator
from jsonschema.validators import validator_for

import qcawalk.experiment as experiment
from qcawalk.experiment import (
    check_record_numbers,
    config_schema,
    execute_point,
    load_config,
    load_records,
    resolve_noise,
    resolve_points,
    run_experiment,
    run_record_schema,
)

SCHEMAS = {"config": config_schema, "run_record": run_record_schema}

#: Keywords that validate nothing.
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions",
                "$comment", "default", "examples"}

# keyword -> how its value holds subschemas
_SCHEMA_MAPS = {"properties", "patternProperties", "definitions", "dependencies"}
_SCHEMA_LISTS = {"allOf", "anyOf", "oneOf"}
_SCHEMA_VALUES = {"additionalProperties", "additionalItems", "items", "contains",
                  "propertyNames", "if", "then", "else", "not"}


def _subschemas(schema):
    """``schema`` and every schema nested in it (boolean schemas aside)."""
    yield schema
    for key, value in schema.items():
        if key in _SCHEMA_MAPS:
            children = value.values()
        elif key in _SCHEMA_LISTS:
            children = value
        elif key in _SCHEMA_VALUES:
            children = value if isinstance(value, list) else [value]
        else:
            continue
        for child in children:
            if isinstance(child, dict):
                yield from _subschemas(child)


def _dialect_problems(schema) -> list:
    """What draft-07 would not enforce in ``schema``: unknown keywords, and
    keywords beside a ``$ref``.  ``then`` and ``else`` count only beside an
    ``if``, whose validator reads them."""
    problems = []
    for sub in _subschemas(schema):
        known = set(Draft7Validator.VALIDATORS) | _ANNOTATIONS
        if "if" in sub:
            known |= {"then", "else"}
        unknown = set(sub) - known
        problems += [f"unknown keyword {k}" for k in sorted(unknown)]
        if "$ref" in sub and len(sub) > 1:
            problems.append(f"$ref {sub['$ref']} has siblings {sorted(set(sub) - {'$ref'})}")
    return problems


class TestDialect:
    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_schema_is_draft7_and_enforced_in_full(self, name):
        schema = SCHEMAS[name]()
        assert validator_for(schema) is Draft7Validator
        Draft7Validator.check_schema(schema)
        assert _dialect_problems(schema) == []

    @pytest.mark.parametrize("keyword, value", [
        ("unevaluatedProperties", False),
        ("prefixItems", [{"type": "string"}]),
        ("dependentRequired", {"name": ["walk"]}),
        ("$dynamicRef", "#meta"),
        ("$defs", {}),
    ])
    def test_guard_finds_a_later_dialects_keyword(self, keyword, value):
        schema = run_record_schema()
        schema["properties"]["meta"][keyword] = value
        assert _dialect_problems(schema) == [f"unknown keyword {keyword}"]

    def test_guard_finds_a_then_without_if(self):
        schema = run_record_schema()
        del schema["properties"]["payload"]["if"]
        assert _dialect_problems(schema) == ["unknown keyword then"]

    def test_guard_finds_a_ref_sibling(self):
        schema = run_record_schema()
        step = schema["definitions"]["step_record"]["properties"]
        step["exact"]["description"] = "ignored beside $ref under draft-07"
        assert _dialect_problems(schema) == [
            "$ref #/definitions/distribution has siblings ['description']"]


def _as_2020_12(schema: dict) -> dict:
    """``schema`` as it read in the 2020-12 dialect: ``$defs`` for
    ``definitions``, and the ``$ref``s to match."""
    text = json.dumps(schema).replace('"definitions":', '"$defs":')
    text = text.replace("#/definitions/", "#/$defs/")
    out = json.loads(text)
    out["$schema"] = "https://json-schema.org/draft/2020-12/schema"
    return out


@pytest.fixture(scope="module")
def record():
    """A small search record with counts, shots, leakage and both backends."""
    cfg = load_config({
        "schema_version": 1, "name": "rules", "seed": 5, "shots": 50,
        "lattice": {"kind": "cycle", "N": 4},
        "walk": {"variant": "search", "steps": 1},
        "backends": ["statevector", "density"],
        "noise": {"relaxation_rate": 3e5, "dephasing_rate": 1e4},
        "output": {"directory": "results", "formats": ["json"]},
    })
    point, = resolve_points(cfg)
    return execute_point(point, resolve_noise(cfg["noise"]))


def _set(path, value):
    def mutate(rec):
        *parents, last = path
        for key in parents:
            rec = rec[key]
        rec[last] = value
    mutate.path = path
    return mutate


def _drop(path):
    def mutate(rec):
        *parents, last = path
        for key in parents:
            rec = rec[key]
        del rec[last]
    mutate.path = path
    return mutate


_PAYLOAD = ("payload",)
_CONFIG = (*_PAYLOAD, "config")
_RUN = (*_PAYLOAD, "runs", "density")
_STEP = (*_RUN, "per_step", 1)
_EXACT = (*_STEP, "exact")
_EMPIRICAL = (*_STEP, "empirical")
_METRICS = (*_PAYLOAD, "metrics")
_SERIES = (*_METRICS, "series", 0)
_SCALARS = (*_METRICS, "scalars")
_META = ("meta",)

#: One mutation per rule of the v1 run record, by (rule, where).
RULE_MUTATIONS = {
    "probability_above_bound": _set((*_EXACT, "probabilities", "0"), 1.0000002),
    "probability_negative": _set((*_EMPIRICAL, "probabilities", "1"), -1e-12),
    "probability_not_number": _set((*_EXACT, "probabilities", "2"), "0.5"),
    "count_negative": _set((*_EMPIRICAL, "counts", "0"), -1),
    "count_not_integer": _set((*_EMPIRICAL, "counts", "0"), 1.5),
    "counts_not_object": _set((*_EMPIRICAL, "counts"), [1, 2]),
    "shots_zero": _set((*_EMPIRICAL, "shots"), 0),
    "shots_not_integer": _set((*_EMPIRICAL, "shots"), 50.5),
    "leakage_negative": _set((*_STEP, "leakage"), -1e-15),
    "leakage_null": _set((*_STEP, "leakage"), None),
    **{f"extra_key_{name}": _set((*where, "extra"), 0) for name, where in [
        ("record", ()), ("payload", _PAYLOAD), ("metrics", _METRICS),
        ("meta", _META), ("backend_run", _RUN), ("step_record", _STEP),
        ("distribution", _EXACT), ("metric_series", _SERIES)]},
    **{f"missing_{'_'.join(map(str, where[-2:]))}": _drop(where) for where in [
        ("payload",), _META,
        (*_PAYLOAD, "schema_version"), _CONFIG, (*_PAYLOAD, "config_hash"),
        (*_PAYLOAD, "runs"), _METRICS,
        (*_CONFIG, "name"), (*_CONFIG, "point_index"), (*_CONFIG, "lattice"),
        (*_CONFIG, "walk"), (*_CONFIG, "backends"),
        (*_CONFIG, "lattice", "kind"), (*_CONFIG, "lattice", "N"),
        (*_CONFIG, "walk", "variant"), (*_CONFIG, "walk", "steps"),
        (*_METRICS, "series"), _SCALARS,
        (*_RUN, "backend"), (*_RUN, "per_step"),
        _EXACT, _EMPIRICAL, (*_STEP, "leakage"),
        (*_EXACT, "probabilities"),
        (*_SERIES, "name"), (*_SERIES, "values"),
        (*_META, "tool_version")]},
    "backend_not_in_enum": _set((*_RUN, "backend"), "gpu"),
    "config_hash_uppercase": _set((*_PAYLOAD, "config_hash"), "A" * 64),
    "config_hash_short": _set((*_PAYLOAD, "config_hash"), "a" * 63),
    "schema_version_2": _set((*_PAYLOAD, "schema_version"), 2),
    "search_without_hitting_time": _drop((*_SCALARS, "hitting_time")),
    "search_without_success_probability": _drop((*_SCALARS, "success_probability")),
    "search_hitting_time_not_integer": _set((*_SCALARS, "hitting_time"), 1.5),
    "search_hitting_time_null": _set((*_SCALARS, "hitting_time"), None),
    "search_success_probability_null": _set((*_SCALARS, "success_probability"), None),
    "series_value_string": _set((*_SERIES, "values", 0), "0.1"),
    "series_value_bool": _set((*_SERIES, "values", 0), True),
    "series_name_not_string": _set((*_SERIES, "name"), 3),
    "series_source_not_strings": _set((*_SERIES, "source"), [1]),
    "scalar_string": _set((*_SCALARS, "extra"), "x"),
    "scalar_object": _set((*_SCALARS, "degraded_ratio_density"), {}),
    "point_index_negative": _set((*_CONFIG, "point_index"), -1),
    "lattice_N_not_integer": _set((*_CONFIG, "lattice", "N"), "4"),
    "per_step_not_array": _set((*_RUN, "per_step"), {}),
    "tool_version_not_string": _set((*_META, "tool_version"), 1),
    "created_utc_not_string": _set((*_META, "created_utc"), 0),
    "wall_time_not_number": _set((*_META, "wall_time_s", "density"), "1s"),
}

#: The rules that ``check_record_numbers`` holds, not the schema.
NUMERIC_RULES = {
    "probability_above_bound", "probability_negative", "probability_not_number",
    "count_negative", "count_not_integer", "shots_zero", "shots_not_integer",
    "leakage_negative", "leakage_null", "series_value_string", "series_value_bool",
    "scalar_string", "scalar_object",
}


def _mutated(record, mutate):
    out = copy.deepcopy(record)
    mutate(out)
    return out


@pytest.mark.parametrize("rule", sorted(RULE_MUTATIONS))
def test_each_rule_is_enforced_on_write_and_on_read(rule, record, tmp_path, monkeypatch):
    mutate = RULE_MUTATIONS[rule]
    bad = _mutated(record, mutate)
    schema = run_record_schema()
    assert Draft7Validator(schema).is_valid(bad) == (rule in NUMERIC_RULES)
    monkeypatch.setattr(experiment, "execute_point", lambda point, noise: bad)
    cfg = {"schema_version": 1, "name": "rules", "lattice": {"kind": "cycle", "N": 4},
           "walk": {"variant": "search", "steps": 1}}
    with pytest.raises(jsonschema.ValidationError) as written:
        run_experiment(cfg, output_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()
    if rule in NUMERIC_RULES:
        assert list(written.value.path) == [0, *mutate.path]

    (tmp_path / "read").mkdir()
    (tmp_path / "read" / "bad.json").write_text(json.dumps(bad))
    if rule == "missing_payload":
        # to the loader, an object without a payload is not a run record
        assert load_records(tmp_path / "read") == []
        return
    with pytest.raises(ValueError, match="bad.json is not a valid run record") as read:
        load_records(tmp_path / "read")
    if rule in NUMERIC_RULES:
        assert f"bad.json is not a valid run record: {'/'.join(map(str, mutate.path))}: " \
            in str(read.value)


#: Values each field is set to: other types and ranges, and the numbers at
#: the edges of draft-07's types, of the numeric rules' bounds and of the
#: float range (JSON integers have no bound).
_VALUES = (None, True, False, -1, 0, 1.5, 1.0000002, "0", "a" * 64, [], {},
           2.0, 2**70, 10**400, -0.0, 1.0000001, 5e-324)
_NON_FINITE = (math.nan, math.inf, -math.inf)


def _leaf_mutations(node, values=_VALUES, path=()):
    """Single-field mutations of ``node``: each field set to each of
    ``values``, each object key dropped, and one key added to each object.
    A list's items share a schema, so only its first is mutated."""
    if isinstance(node, dict):
        yield _set((*path, "extra"), 0)
        for key, child in node.items():
            yield _drop((*path, key))
            yield from _leaf_mutations(child, values, (*path, key))
    elif isinstance(node, list) and node:
        yield from _leaf_mutations(node[0], values, (*path, 0))
    if path:
        for value in values:
            yield _set(path, value)


FULL_V1_SCHEMA = Path(__file__).parent / "data" / "run_record_v1_full.schema.json"


def _verdicts_by_dialect():
    """(combined, full) verdict functions, read as draft-07 and as 2020-12:
    the shipped schema then the numeric check, and the full v1 schema."""
    shipped, full = run_record_schema(), json.loads(FULL_V1_SCHEMA.read_text())
    for dialect, convert in [(Draft7Validator, dict), (Draft202012Validator, _as_2020_12)]:
        structure, old = convert(shipped), convert(full)
        assert validator_for(structure) is validator_for(old) is dialect
        dialect.check_schema(structure)
        structure, old = dialect(structure), dialect(old)

        def combined(rec, structure=structure):
            try:
                structure.validate(rec)
                check_record_numbers(rec)
            except jsonschema.ValidationError:
                return False
            return True

        yield combined, old.is_valid


def test_draft7_and_2020_12_verdicts_agree(record):
    # the shipped schema plus the numeric check, against the full v1 schema
    corpus = [record] + [_mutated(record, m) for m in RULE_MUTATIONS.values()]
    corpus += [_mutated(record, m) for m in _leaf_mutations(record)]
    seen = []
    for combined, full in _verdicts_by_dialect():
        verdicts = [combined(r) for r in corpus]
        assert verdicts == [full(r) for r in corpus]
        seen.append(verdicts)
    verdicts, verdicts_2020_12 = seen
    assert verdicts == verdicts_2020_12
    assert verdicts[0]
    assert not any(verdicts[1:1 + len(RULE_MUTATIONS)])
    assert 0 < sum(verdicts) < len(corpus)  # the corpus has both verdicts


def _has_non_finite(node) -> bool:
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        node = list(node.values())
    return isinstance(node, list) and any(map(_has_non_finite, node))


def test_non_finite_numbers_are_the_one_designed_difference(record):
    # the full v1 schema let NaN past every bound, and Infinity past
    # leakage's and the series'; the numeric check reads the payload's runs
    # and metrics, and rejects both there
    corpus = [_mutated(record, m) for m in _leaf_mutations(record, _NON_FINITE)]
    checked = [_has_non_finite([r["payload"].get("runs"), r["payload"].get("metrics")])
               if isinstance(r.get("payload"), dict) else False for r in corpus]
    for combined, full in _verdicts_by_dialect():
        assert not any(combined(r) for r, c in zip(corpus, checked) if c)
        assert [combined(r) for r, c in zip(corpus, checked) if not c] == \
            [full(r) for r, c in zip(corpus, checked) if not c]
        assert sum(full(r) for r, c in zip(corpus, checked) if c) > 0


#: Where the schema meets the record's numbers, which only
#: ``check_record_numbers`` checks: a per-number subschema here would
#: bring back the cost of checking them one by one.
_NUMBER_SUBSCHEMAS = [
    ("definitions", "distribution", "properties", "probabilities"),
    ("definitions", "distribution", "properties", "shots"),
    ("definitions", "distribution", "properties", "counts"),
    ("definitions", "step_record", "properties", "leakage"),
    ("definitions", "metric_series", "properties", "values"),
    ("properties", "payload", "properties", "metrics", "properties", "scalars"),
]


@pytest.mark.parametrize("where", _NUMBER_SUBSCHEMAS, ids=lambda w: "/".join(w[-3::2]))
def test_record_schema_checks_no_number(where):
    sub = functools.reduce(operator.getitem, where, run_record_schema())
    assert set(sub) <= {"type", "description"}
    types = sub.get("type", [])
    assert {"number", "integer"}.isdisjoint([types] if isinstance(types, str) else types)


def test_config_verdicts_agree_with_2020_12():
    schema = config_schema()
    old = _as_2020_12(schema)
    draft7, draft2020 = validator_for(schema)(schema), validator_for(old)(old)
    assert type(draft2020) is Draft202012Validator
    base = {
        "schema_version": 1, "name": "cfg", "shots": 10, "seed": 0,
        "lattice": {"kind": "torus", "N": 4},
        "walk": {"variant": "search", "steps": 2, "marked": None,
                 "init": {"kind": "single", "site": 0}, "initializer_mode": "exact"},
        "backends": ["statevector", "density"], "n_trajectories": 3,
        "noise": {"relaxation_rate": 1.0, "dephasing_rate": 0.0, "coupling": 1.0,
                  "single_qubit_duration": 1.0, "idle_decay": True},
        "sweep": {"sizes": [4, 6]},
        "output": {"directory": "out", "formats": ["json", "csv"]},
    }
    corpus = [base] + [_mutated(base, m) for m in _leaf_mutations(base)]
    verdicts = [draft7.is_valid(c) for c in corpus]
    assert verdicts == [draft2020.is_valid(c) for c in corpus]
    assert verdicts[0] and not all(verdicts)


def test_run_validates_each_record_under_draft7(tmp_path, monkeypatch):
    # the bench traces this call as the record-validation layer: one call
    # per run, over the list of its records
    calls = []
    real = jsonschema.validate

    def spy(instance, schema, *args, **kwargs):
        calls.append((instance, schema, kwargs))
        return real(instance, schema, *args, **kwargs)

    monkeypatch.setattr(experiment.jsonschema, "validate", spy)
    run_experiment({"schema_version": 1, "name": "spy", "lattice": {"kind": "cycle", "N": 4},
                    "walk": {"variant": "walk", "steps": 1}, "sweep": {"sizes": [4, 6]}},
                   output_dir=tmp_path)
    (instance, schema, kwargs), = calls
    assert [r["payload"]["config"]["lattice"]["N"] for r in instance] == [4, 6]
    assert validator_for(schema) is Draft7Validator

    # the call reaches the shipped record schema
    bad = [instance[0], {**instance[1], "extra": 0}]
    with pytest.raises(jsonschema.ValidationError) as info:
        real(bad, schema, **kwargs)
    assert list(info.value.path) == [1]
    assert info.value.validator == "additionalProperties"
    assert info.value.schema == run_record_schema()
