"""Numeric thresholds shared across the library.

Modules read them as ``config.NAME`` when they run, never as bound
defaults.  Only the comparison tolerance is settable, and only where a
chain is keyed: ``SymbolTable`` takes it as ``tol`` (``CMP`` when not
given), and ``check_cmp`` decides which values it may take.  An
evaluation runs at the tolerance of its chain's table.
"""

from __future__ import annotations

# equality of complex scalars and matrix entries: a value within CMP in
# every entry of a keyed one gets a keyed id (see quantize)
CMP = 1e-8
ZERO = 1e-12  # absolute "is zero"
VGOOD = 1e-7  # scale-relative determinant threshold for v-goodness
APEX_MARGIN = 1e-3  # least sign distance of a cone apex from what it avoids


def check_cmp(cmp: float) -> float:
    """``cmp``, when it is a usable comparison tolerance: positive and below
    ``APEX_MARGIN`` (so finite), else ValueError.  A cone apex is only drawn
    ``APEX_MARGIN`` away from the elements it avoids, so at a coarser
    tolerance it could be identified with one of them."""
    if not 0 < cmp < APEX_MARGIN:  # NaN fails too
        raise ValueError(f"tolerance cmp must lie in (0, {APEX_MARGIN:g}), "
                         f"got {cmp}")
    return cmp
