"""JSON config sections: each key's kind and default, checked in one place.

A section maps each key to (kind, default). A key whose default is
REQUIRED must be given; a key whose default is None also takes null.
"""

import dataclasses
import json

REQUIRED = object()


class ConfigError(ValueError):
    """A config key or value that would not take effect as written."""


class Kind:
    """A value that passes `test` is kept as `store(value)`, which may still refuse
    it with ValueError; one that fails is rejected with `message`, formatted."""

    def __init__(self, what: str, test, store=None, message=None):
        self.what, self.test, self.store = what, test, store or (lambda value: value)
        self.message = message or "{where}: {key} must be {what}, not {value!r}"

    def __call__(self, value, where: str, key: str):
        if not self.test(value):
            raise ConfigError(self.message.format(where=where, key=key, what=self.what, value=value))
        try:
            return self.store(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


# bool is a subclass of int, so these test the exact type
INTEGER = Kind("an integer", lambda value: type(value) is int)
NUMBER = Kind("a number", lambda value: type(value) in (int, float))
STRING = Kind("a string", lambda value: type(value) is str)
SWITCH = Kind("true or false", lambda value: type(value) is bool, message="{key} must be {what}, not {value!r}")
OBJECT = Kind("an object", lambda value: True)  # read as a section of its own, which checks it


def one_of(*values: str, message=None) -> Kind:
    return Kind(f"one of {list(values)}", lambda value: type(value) is str and value in values, message=message)


def list_of(what: str, test, store=list) -> Kind:
    return Kind(what, lambda value: type(value) is list and all(map(test, value)), store)


def fields_of(cls, kinds: dict) -> dict:
    """The section of dataclass `cls`: each field's kind by its annotation in `kinds`, and its default."""
    return {f.name: (kinds[f.type], REQUIRED if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)}


def load_json(path):
    """The JSON document in the file at `path`; one that is not UTF-8 JSON
    raises ConfigError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not UTF-8 JSON: {exc}") from None


def read(doc, section: dict, where: str, others=()) -> dict:
    """Every key of `section` with its value in the JSON object `doc`, or its default;
    `doc` may also hold the keys of the sections in `others`, and no other key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, not {doc!r}")
    unknown = sorted(set(doc).difference(section, *others))
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {unknown}")
    values = {}
    for key, (kind, default) in section.items():
        if key not in doc and default is REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        value = doc.get(key, default)
        values[key] = value if key not in doc or (value is None and default is None) else kind(value, where, key)
    return values
