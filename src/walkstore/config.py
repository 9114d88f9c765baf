"""Package-wide limits and tunables."""

import os

# Hard cap on graph size.  Overridable through the environment for
# experiments; everything in the package assumes vertex ids fit a byte.
DEFAULT_VERTEX_CAP = 64

# Walk-count tables refuse lengths beyond this (resource guard).
MAX_WALK_LENGTH = 2**24

# Directory size guard for the walk codec with branching > 2.
CODEC_TUPLE_CAP = 2**16

# Blocked succinct arrays aim for group widths at most this many bits so a
# group read touches at most 3 words.
BLOCKED_TARGET_WIDTH = 120


def vertex_cap() -> int:
    raw = os.environ.get("WALKSTORE_MAX_VERTICES")
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_VERTEX_CAP
    return value if value >= 1 else DEFAULT_VERTEX_CAP
