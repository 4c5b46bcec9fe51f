"""Field access for the corpus scripts, shared so that one script dumps a
tree whose value types are frozen dataclasses and a tree whose value types
are twoorigins Records alike, byte for byte."""

import dataclasses

try:
    from twoorigins._record import Record
except ImportError:  # a tree from before Record
    Record = None


def record_fields(obj):
    """The fields of a value type instance as a name -> value dict in field
    order, or None when obj is not one."""
    if Record is not None and isinstance(obj, Record):
        return {name: getattr(obj, name) for name in obj._fields}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return None
