"""One checker for outside input: run configs, mesh documents and benchmark
params.

A table describes an input field by field.  Each `Field` has a kind, a range
and a default.  `check` returns the value normalized (defaults filled in,
numbers as float, whole numbers as int, sets sorted) or raises `InputError`,
which says where the value sits and what it must be.

- Numbers must be finite: Python's json reads NaN and Infinity.  A whole
  number is an integer, or a float holding one exactly (at most 2**53).
- Objects reject unknown keys.  A tag field of an object may select more
  fields for it (the mesh type selects the mesh's dimensions).
- A field always takes its own default, so a default of None lets null
  through, and an absent field is checked as if its default were given.
"""

import json
import math
import reprlib
from dataclasses import dataclass

REQUIRED = object()   # default of a field that must be given
_WHOLE_MAX = 2.0 ** 53
_OPS = {">": float.__gt__, ">=": float.__ge__, "<": float.__lt__,
        "<=": float.__le__}


class InputError(ValueError):
    """Malformed or out-of-range input: a run config, a mesh document or
    benchmark params."""


@dataclass(frozen=True)
class Field:
    """kind is number, whole, bool, text, tag, list, pair or object.

    - bounds: (op, limit) pairs a number or whole number must meet.
    - tags: a tag's names, or a dict from each name to what it selects:
      more fields (a tag field of an object) or the value's Field (pair).
    - name: what one tag is called in messages.
    - entry, size, nonempty, unique: a list's entry Field, exact length,
      and whether it may be empty; a unique list is returned sorted.
    - label: entries of a list of objects are named "<label> <k>" in
      place of "<list>[<k>]".
    - fields: an object's Fields by key; None takes any object as given.
    - member: an object names its members as keys ("'lx'", "missing
      required key") or, in mesh documents, as fields ("n_u", "missing
      field").
    """

    kind: str
    default: object = REQUIRED
    bounds: tuple = ()
    tags: object = None
    name: str = ""
    entry: "Field" = None
    size: int = 0
    nonempty: bool = False
    unique: bool = False
    label: str = ""
    fields: dict = None
    member: str = "key"


def _bounds(gt=None, ge=None, lt=None, le=None):
    return tuple((op, float(v)) for op, v in
                 ((">", gt), (">=", ge), ("<", lt), ("<=", le))
                 if v is not None)


def number(default=REQUIRED, **bounds):
    return Field("number", default, _bounds(**bounds))


def whole(default=REQUIRED, **bounds):
    return Field("whole", default, _bounds(**bounds))


def flag(default=REQUIRED):
    return Field("bool", default)


def text(default=REQUIRED):
    return Field("text", default)


def tag(name, tags, default=REQUIRED):
    return Field("tag", default, tags=tags, name=name)


def pair(name, tags, default=REQUIRED):
    """A list [tag, value] whose tag selects the value's Field."""
    return Field("pair", default, tags=tags, name=name)


def listof(entry, default=REQUIRED, size=0, nonempty=False, unique=False,
           label=""):
    return Field("list", default, entry=entry, size=size,
                 nonempty=nonempty or unique, unique=unique, label=label)


def obj(fields, default=REQUIRED, member="key"):
    return Field("object", default, fields=fields, member=member)


def check(field, value, where=""):
    """value checked against field and normalized.  where is the path of
    value in messages ("params" names its member n "params.n"); at the
    top of a document it is empty."""
    return _check(field, value, where, None, "key")


def read_json(path):
    """The JSON document at path; InputError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


_show = reprlib.Repr()
_show.maxlist = _show.maxlevel = 4


def _check(f, v, path, key, member):
    """v is path's member key, or path itself when key is None."""
    inner = path if key is None else f"{path}.{key}" if path else key
    what = None
    if (not isinstance(f.default, (dict, list)) and type(v) is type(f.default)
            and v == f.default):
        return v
    if f.kind == "object" and isinstance(v, dict):
        return _object(f, v, inner)
    if f.kind == "list" and isinstance(v, list) and not (
            f.size and len(v) != f.size or f.nonempty and not v):
        if f.entry.kind == "object":
            return [_check(f.entry, e, f"{f.label} {k}" if f.label
                           else f"{inner}[{k}]", None, member)
                    for k, e in enumerate(v)]
        try:
            out = [_check(f.entry, e, inner, None, member) for e in v]
        except InputError:
            pass
        else:
            return sorted(set(out)) if f.unique else out
    elif f.kind == "pair" and isinstance(v, list) and len(v) == 2:
        try:
            return [v[0], _check(f.tags[v[0]], v[1], path, key, member)]
        except (InputError, KeyError, TypeError):
            pass
    elif f.kind == "tag" and isinstance(v, str) and v in f.tags:
        return v
    elif f.kind == "tag":
        raise _error(path, f"unknown {f.name} {_show.repr(v)}; "
                     f"{_cite(key, member)} must be one of {sorted(f.tags)}")
    elif f.kind in ("number", "whole") and _is_number(v):
        x = float(v)
        if f.kind == "number" or x.is_integer() and abs(x) <= _WHOLE_MAX:
            if all(_OPS[op](x, lim) for op, lim in f.bounds):
                return x if f.kind == "number" else int(x)
            what = _range(f.bounds)
    elif f.kind == "bool" and isinstance(v, bool):
        return v
    elif f.kind == "text" and isinstance(v, str):
        return v
    what = what or _what(f, member)
    if key is None:
        raise _error(path, f"must be {what}")
    cite = _cite(key, member)
    raise _error(path, f"{cite} = {_show.repr(v)}, but {cite} must be {what}")


def _error(path, message):
    return InputError(f"{path}: {message}" if path else message)


def _is_number(v):
    return (isinstance(v, float) and math.isfinite(v)
            or isinstance(v, int) and not isinstance(v, bool)
            and abs(v) < 1e308)


def _cite(key, member):
    return repr(key) if member == "key" else key


def _object(f, d, path):
    if f.fields is None:
        return dict(d)
    out, todo = {}, list(f.fields.items())
    while todo:
        key, sub = todo.pop(0)
        if key in d:
            out[key] = _check(sub, d[key], path, key, f.member)
        elif sub.default is REQUIRED:
            noun = "required key" if f.member == "key" else "field"
            raise _error(path, f"missing {noun} {key!r}")
        else:
            out[key] = _check(sub, sub.default, path, key, f.member)
        if sub.kind == "tag" and isinstance(sub.tags, dict):
            todo.extend(sub.tags[out[key]].items())
    extra = sorted(set(d) - set(out))
    if extra:
        raise _error(path, f"unknown key(s) {', '.join(extra)}")
    return out


def _range(bounds):
    return " and ".join("positive" if b == (">", 0.0) else f"{b[0]} {b[1]:g}"
                        for b in bounds)


def _what(f, member, plural=False):
    """What a value of f must be, as a noun phrase."""
    a = "" if plural else "a "
    s = "s" if plural else ""
    if f.kind == "list":
        size = f"{f.size} " if f.size else ""
        of = (f"drawn from {sorted(f.entry.tags)}" if f.entry.kind == "tag"
              else f"of {size}{_what(f.entry, member, plural=True)}")
        return f"{a}{'nonempty ' if f.nonempty else ''}list{s} {of}"
    if f.kind == "object":
        return "objects" if plural else "an object"
    if f.kind == "pair":
        return f"{a}[{f.name}, value] pair{s} from {sorted(f.tags)}"
    if f.kind == "bool" and member == "field" and not plural:
        return "true or false"
    noun = {"number": "number", "whole": "whole number", "bool": "boolean",
            "text": "string"}[f.kind]
    rng = f" ({_range(f.bounds)})" if f.bounds else ""
    return f"{a}{noun}{s}{rng}"
