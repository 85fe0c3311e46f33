"""SI unit constants and engineering-notation helpers.

All quantities inside the library are plain floats (or numpy arrays) in
base SI units: seconds, volts, amperes, ohms, siemens, farads, watts,
joules and square metres.  The constants below make parameter definitions
read like a datasheet::

    C_COG = 100 * FEMTO    # 100 fF
    SLICE = 100 * NANO     # 100 ns
    R_GD = 100 * KILO      # 100 kΩ

:func:`si_format` renders a value back into engineering notation for
reports and benchmark tables.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: SI prefixes as multipliers.
YOCTO = 1e-24
ZEPTO = 1e-21
ATTO = 1e-18
FEMTO = 1e-15
PICO = 1e-12
NANO = 1e-9
MICRO = 1e-6
MILLI = 1e-3
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

_PREFIXES = [
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
]


def si_format(value: float, unit: str = "", digits: int = 3) -> str:
    """Format ``value`` in engineering notation with an SI prefix.

    Parameters
    ----------
    value:
        The quantity in base SI units.
    unit:
        Unit symbol appended after the prefix (e.g. ``"F"``, ``"s"``).
    digits:
        Number of significant digits.

    Examples
    --------
    >>> si_format(1e-13, "F")
    '100 fF'
    >>> si_format(2.5e-3, "S")
    '2.5 mS'
    >>> si_format(0.0, "W")
    '0 W'

    Values outside the prefix table (below atto or at/above 1000 tera
    after rounding) fall back to plain scientific notation, and a value
    that *rounds* across a prefix boundary is promoted to the larger
    prefix (``999.96e-9 s`` at 4 digits renders ``1 us``, not
    ``1000 ns``).
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:g} {unit}".rstrip()
    magnitude = abs(value)
    for index, (scale, prefix) in enumerate(_PREFIXES):
        if magnitude >= scale:
            text = f"{value / scale:.{digits}g}"
            if abs(float(text)) >= 1000:
                if index == 0:  # no larger prefix: plain scientific
                    break
                scale, prefix = _PREFIXES[index - 1]
                text = f"{value / scale:.{digits}g}"
            if "e" in text:  # few digits of a >=100 value: re-render
                text = f"{float(text):g}"
            return f"{text} {prefix}{unit}".rstrip()
    # sub-atto or supra-tera: no prefix represents this cleanly
    return f"{value:.{digits}g} {unit}".rstrip()


def parallel(*resistances: float) -> float:
    """Equivalent resistance of resistors in parallel.

    >>> parallel(10e3, 10e3)
    5000.0
    """
    if not resistances:
        raise ConfigurationError("parallel() requires at least one resistance")
    total_conductance = 0.0
    for r in resistances:
        if r <= 0:
            raise ConfigurationError(f"resistance must be positive, got {r!r}")
        total_conductance += 1.0 / r
    return 1.0 / total_conductance


def conductance(resistance: float) -> float:
    """Convert a resistance in ohms to a conductance in siemens."""
    if resistance <= 0:
        raise ConfigurationError(f"resistance must be positive, got {resistance!r}")
    return 1.0 / resistance


def resistance(g: float) -> float:
    """Convert a conductance in siemens to a resistance in ohms."""
    if g <= 0:
        raise ConfigurationError(f"conductance must be positive, got {g!r}")
    return 1.0 / g
