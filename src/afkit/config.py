"""Runtime knob: the enumeration cap, overridable through the environment."""

import os

# Exhaustive semantics enumeration scans up to 2^n candidate subsets; refuse
# beyond this many arguments instead of hanging.
DEFAULT_MAX_ENUM_ARGS = 24

ENV_MAX_ARGS = "AFKIT_MAX_ARGS"


def max_enum_args() -> int:
    raw = os.environ.get(ENV_MAX_ARGS)
    if raw is None:
        return DEFAULT_MAX_ENUM_ARGS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_ARGS} must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"{ENV_MAX_ARGS} must be non-negative, got {value}")
    return value
