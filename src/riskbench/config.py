"""Run configs and config dataclasses, checked by one set of rules: a field's
metadata bounds it, and `_run_schema` holds the run config's other keys.
`load_config` checks a run config before any work; `build_config` turns a JSON
document into a config dataclass, for a run config section and a checkpoint
sidecar's `config` alike."""

from __future__ import annotations

import dataclasses
import json
import sys

from .errors import ConfigError, DataError
from .files import read_json_object


class _Rule(dict):
    """A config leaf: "type" ("int", "float", "str" or "bool") and a bound, "min" /
    "max" / "below" (exclusive), "positive" or "choices"; or, for a non-empty list,
    "items" (each item's rule), "len" and "ordered" (non-decreasing). Numbers are finite.
    A field's "divides" names the field that must be a multiple of it (`build_config`),
    and its "section" the run config section that holds it, if not its class's own."""

    def violation(self, value) -> str | None:
        """What `value` must be, if it breaks this rule; otherwise None."""
        if "items" in self:
            item = _Rule(self["items"])
            ok = (isinstance(value, list) and len(value) == self.get("len", len(value)) > 0
                  and not any(map(item.violation, value))
                  and (not self.get("ordered") or value == sorted(value)))
            return None if ok else self.noun()
        if not _TYPES[self["type"]][0](value):
            return self.noun()
        ok = (value in self["choices"] if "choices" in self else isinstance(value, (str, bool))
              or self.get("min", value) <= value <= self.get("max", value)
              and ("below" not in self or value < self["below"])
              and (value > 0 or not self.get("positive")))
        return None if ok else self.bound()

    def noun(self, plural: bool = False) -> str:
        if "items" in self:
            ordered = ", in non-decreasing order" if self.get("ordered") else ""
            return (f"{'lists' if plural else 'a list'} of {self.get('len', 'one or more')} "
                    f"{_Rule(self['items']).noun(plural=True)}{ordered}")
        each = plural and len(self) > 1 and f", each {self.bound()}"
        return _TYPES[self["type"]][1 + plural] + (each or "")

    def bound(self) -> str:
        if "choices" in self:
            return "one of " + ", ".join(map(repr, self["choices"]))
        if "max" in self or "below" in self:
            high = f"{self['max']}]" if "max" in self else f"{self['below']})"
            return f"in [{self['min']}, {high}"
        if self.get("positive"):
            return "positive"
        return "non-negative" if self["min"] == 0 else f"at least {self['min']}"


_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", "integers"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number", "finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "bool": (lambda v: isinstance(v, bool), "true or false", "booleans"),
}


def _field_rules(config_class) -> dict:
    """One rule per config dataclass field: its (string) annotation, bounded by its
    metadata. A field annotated with no rule type (such as `CvSettings`' run-time
    `dict | None`) has no rule and is no config key."""
    return {f.name: _Rule(type=f.type, **f.metadata) for f in dataclasses.fields(config_class)
            if f.type in _TYPES or "items" in f.metadata}


_STR, _BOOL = _Rule(type="str"), _Rule(type="bool")


def _run_schema(kind: str) -> dict:
    """The run config's keys, `model.extras` as model kind `kind`'s config. It is
    built when asked for, since the modules of the config classes import this one."""
    from .cohort import SynthSpec
    from .mae import MaeConfig
    from .models import MODEL_KINDS, BaseConfig
    from .pipeline import CV_PRESETS, CvSettings, HParamGrid

    settings = _field_rules(CvSettings)
    features = {key: rule for key, rule in settings.items() if rule.get("section") == "features"}
    extras = _field_rules(MODEL_KINDS[kind][1] if kind in MODEL_KINDS else BaseConfig)
    return {
        "seed": _Rule(type="int", min=0),
        "workers": _Rule(type="int", min=1),
        "data": {"cohort_csv": _STR, "features_csv": _STR, "category_map": _STR,
                 "synthetic": {"n": _Rule(type="int", min=1), **_field_rules(SynthSpec)}},
        "features": features,
        "model": {"kind": _Rule(type="str", choices=tuple(MODEL_KINDS)),
                  "extras": (extras, f"model kind {kind!r}")},
        "grid": _field_rules(HParamGrid),
        "cv": {"k": _Rule(type="int", min=2),
               "preset": _Rule(type="str", choices=tuple(CV_PRESETS)),
               **{key: rule for key, rule in settings.items() if key not in features},
               "save_fold_checkpoints": _BOOL},
        "mae": {"n_phantoms": _Rule(type="int", min=1), "volumes_dir": _STR, "checkpoint": _STR,
                "dims": _Rule(items={"type": "int", "min": 1}, len=4), **_field_rules(MaeConfig)},
        "output": {"dir": _STR},
    }


def _check_keys(doc: dict, schema: dict, path: str = "", note: str = "") -> None:
    """Check `doc` against `schema`: a _Rule is a leaf, a dict a section, and a
    (section, note) pair a section whose errors end with the note."""
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        tail = f" ({note}, field {key!r})" if note else ""
        node = schema.get(key)
        if node is None:
            raise ConfigError(f"unknown config key {where!r}{tail}")
        if isinstance(node, _Rule):
            if problem := node.violation(value):
                raise ConfigError(f"{where} must be {problem}, got {value!r}{tail}")
            continue
        section, inner = node if isinstance(node, tuple) else (node, "")
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}{tail}")
        _check_keys(value, section, where, inner)


def _parse_set(override: str) -> tuple[list[str], object]:
    if "=" not in override:
        raise ConfigError(f"--set expects section.key=value, got {override!r}")
    dotted, raw = override.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return dotted.split("."), value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The run config at `path` (if any) with `--set` overrides, every key
    checked, `model.extras` as the config of `model.kind`."""
    doc: dict = {"seed": 0, "workers": 1}
    if path is not None:
        try:
            doc.update(read_json_object(path))
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
    for override in overrides or []:
        keys, value = _parse_set(override)
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object {key!r}")
        node[keys[-1]] = value
    model = doc.get("model")
    _check_keys(doc, _run_schema(str(model.get("kind", "dsm")) if isinstance(model, dict)
                                 else "dsm"))
    return doc


def build_config(config_class, doc, where: str, complete: bool = False, needs: tuple = ()):
    """`doc` as a `config_class`: each field that has a rule checked by it (a list
    becomes a tuple for a tuple field), then the cross-field rules, "divides" and
    the class's `__post_init__`. A run config section may leave out fields that
    have defaults and holds keys of its own, which `load_config` checks; a
    `complete` document (a sidecar's `config`) holds every field and nothing else.
    `needs` names keys of the section's own that must be present too; a missing
    one is listed before the missing fields. Raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    rules = _field_rules(config_class)
    _check_keys(doc if complete else {k: v for k, v in doc.items() if k in rules}, rules, where)
    fields = [f for f in dataclasses.fields(config_class) if f.name in rules]
    required = [*needs, *(f.name for f in fields if complete or f.default is dataclasses.MISSING)]
    if missing := [key for key in required if key not in doc]:
        raise ConfigError(f"{where} is missing {', '.join(missing)}")
    try:
        config = config_class(**{f.name: tuple(doc[f.name]) if f.type == "tuple" else doc[f.name]
                                 for f in fields if f.name in doc})
    except DataError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for f in fields:
        whole = f.metadata.get("divides")
        if whole and getattr(config, whole) % getattr(config, f.name):
            raise ConfigError(f"{where}.{whole} must be divisible by {where}.{f.name}, "
                              f"got {getattr(config, whole)} and {getattr(config, f.name)}")
    return config
