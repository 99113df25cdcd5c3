"""The `key = value` lines of every text report; the config parser reads them back."""

from dataclasses import fields

import numpy as np


def kv_lines(pairs):
    """One `key = value` line per pair, each parsing back to its value.

    None reads `none`, a string reads as it is, bools and integers read
    as integers and anything else as the repr of a float.
    """
    lines = []
    for key, val in pairs:
        if val is None:
            text = "none"
        elif isinstance(val, str):
            text = val
        elif isinstance(val, (bool, np.bool_, int, np.integer)):
            text = str(int(val))
        else:
            text = repr(float(val))
        lines.append(f"{key} = {text}")
    return lines


def field_pairs(record):
    """(name, value) of each field of a dataclass record, in field order."""
    return [(f.name, getattr(record, f.name)) for f in fields(record)]
