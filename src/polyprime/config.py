"""The config grammar every subcommand shares: frozen dataclasses built
on `Config`, one `_key` field per config key, from which the command line
builds its flags and `from_dict` rebuilds a manifest's config.  Both take
the class from `CONFIGS`, ExperimentConfig for an experiment kind."""

import contextlib
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation

from .errors import BudgetError, ConfigError
from .gowers import MULTIPLIER, TARGETS, check_budget, embedding_modulus

# Cap on a series truncation w: series_f takes about 4 s per polynomial
# at w = 10**4, and its time grows like w**2.
W_CAP = 10 ** 4
# Most digits of an integer key: Python's default limit on int/str
# conversion, past which a run could not write its config or its CSVs.
# Converting "1e1000000" to an int alone takes about 40 s.
DIGITS_CAP = 4300


class Text(str):
    """A config value as typed in a --flag or a config file.  Only a Text
    is read as text: a config refuses any other str for a key that is not
    of type str."""


def _past_digits_cap(key: str) -> BudgetError:
    return BudgetError(f"{key}: more than {DIGITS_CAP} digits, past the "
                       "cap of Python's int/str conversion")


def parse_int_exact(value, key: str) -> int:
    """An int (not a bool), or its text, exact in scientific notation:
    "1e9" is 10**9, "2.5e1" is 25, and "2.5" is not integral.  One of
    more than DIGITS_CAP digits is refused (BudgetError) before it is
    converted."""
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= 10 ** DIGITS_CAP:
            raise _past_digits_cap(key)
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{key}: {value!r} is not an integer")
    try:
        dec = Decimal(value)
    except InvalidOperation:
        raise ConfigError(f"{key}: {value!r} is not an integer")
    if dec and dec.adjusted() >= DIGITS_CAP:  # |dec| >= 10**DIGITS_CAP
        raise _past_digits_cap(key)
    if not dec.is_finite() or dec != dec.to_integral_value():
        raise ConfigError(f"{key}: {value!r} is not integral")
    return int(dec)


def parse_float(value, key: str) -> float:
    """An int or float (not a bool), or its text."""
    if isinstance(value, str | int | float) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            return float(value)
    raise ConfigError(f"{key}: {value!r} is not a number")


def parse_int_list(value, key: str) -> tuple:
    """A list or tuple of ints, or its comma-separated text."""
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip() != ""]
        if not value:
            raise ConfigError(f"{key}: empty list")
    elif not isinstance(value, list | tuple):
        raise ConfigError(f"{key}: {value!r} is not a list")
    return tuple(parse_int_exact(v, key) for v in value)


def parse_points(value, key: str) -> tuple:
    """A list of distinct ints (shifts or evaluation points), as
    `parse_int_list` reads it."""
    points = parse_int_list(value, key)
    if len(set(points)) != len(points):
        raise ConfigError(f"{key} must be distinct")
    return points


def parse_pattern(value, key: str = "pattern") -> tuple:
    """Sign pattern: entries +1/-1, or the text "+-" or "+1,-1"."""
    t = value.strip() if isinstance(value, str) else ""
    if t and all(c in "+-" for c in t):
        return tuple(1 if c == "+" else -1 for c in t)
    vals = parse_int_list(value, key)
    if any(v not in (-1, 1) for v in vals):
        raise ConfigError(f"{key}: entries must be +1 or -1")
    return vals


def _parse_coeffs(value, key: str) -> tuple:
    """Polynomial coefficients a0, a1, ...: ints, or the text a0;a1;..."""
    coeffs = parse_int_list(
        value.split(";") if isinstance(value, str) else value, key)
    if not coeffs:
        raise ConfigError(f"{key}: no coefficients")
    return coeffs


def check_w(w: int) -> None:
    """Refuse a series truncation w below 2 (ConfigError) or past W_CAP
    (BudgetError), naming w."""
    if w < 2:
        raise ConfigError("w must be >= 2")
    if w > W_CAP:
        raise BudgetError(f"w: a series would run over the primes up to "
                          f"{w}, past the cap of {W_CAP}")


def _key(help: str, default=MISSING, parse=parse_int_exact):
    """A config key's field: its default (none: required), its --flag
    help text and its parser, parse(value or text, key) -> value."""
    return field(default=default, metadata={"help": help, "parse": parse})


@dataclass(frozen=True, kw_only=True)
class Config:
    """The base of every subcommand's config.  Each field declared with
    `_key` is a config key, spelled with - for _ as a flag.  `_checks`
    yields (ok, message) pairs on the parsed keys; the first not ok is
    raised.  A bad key raises ConfigError naming it.  A size past its cap
    raises BudgetError from `_checks`, once the checks before it pass."""

    def __post_init__(self):
        for f in fields(self):
            if not f.metadata:  # a field that is no key
                continue
            key, value = f.name.replace("_", "-"), getattr(self, f.name)
            if not isinstance(value, Text) \
                    and isinstance(value, str) != (f.type is str):
                raise ConfigError(f"{key}: {value!r} is not of type "
                                  f"{f.type.__name__}")
            object.__setattr__(self, f.name, f.metadata["parse"](value, key))
        for ok, message in self._checks():
            if not ok:
                raise ConfigError(message)

    def _checks(self):
        return ()

    @classmethod
    def from_dict(cls, values: dict):
        """The config of outside input, a manifest's values or the flags'
        Text, by field name; names an unknown or missing required key."""
        known = {f.name: f.default for f in fields(cls)}
        for key in values:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for key, default in known.items():
            if default is MISSING and key not in values:
                raise ConfigError(f"missing required config value {key!r}")
        return cls(**values)


@dataclass(frozen=True, kw_only=True)
class GowersConfig(Config):
    """`polyprime gowers`: U^s norms of a target on [1, N] or on Z/MZ."""

    target: str = _key(", ".join(TARGETS),
                       parse=lambda value, key: str(value))
    N: tuple = _key("comma list of interval lengths", (), parse_int_list)
    M: tuple = _key("comma list of cyclic group sizes", (), parse_int_list)
    s: int = _key("norm order", 2)

    def _checks(self):
        yield bool(self.N) != bool(self.M), \
            "give exactly one of --N (interval) or --M (cyclic)"
        yield self.target in TARGETS, \
            f"unknown gowers target {self.target!r}"
        yield min(self.N + self.M) >= 1, \
            f"{'N' if self.N else 'M'} entries must be >= 1"
        yield self.s >= 1, "s must be >= 1"
        # An interval row's modulus is at least MULTIPLIER * N, which is
        # checked first, so that a huge N is refused before a prime search.
        for size in self.M:
            check_budget(size, self.s)
        for size in self.N:
            check_budget(MULTIPLIER * size, self.s)
            check_budget(embedding_modulus(size), self.s)


@dataclass(frozen=True, kw_only=True)
class SeriesConfig(Config):
    """`polyprime series`: the truncated series of f at distinct shifts."""

    poly: tuple = _key("coefficients a0;a1;... e.g. 2;1;1",
                       parse=_parse_coeffs)
    w: int = _key("truncation bound")
    shifts: tuple = _key("distinct shifts for the tuple series (default 0)",
                         (0,), parse_points)

    def _checks(self):
        check_w(self.w)
        return ()


# The config class of each subcommand that is not an experiment kind.
CONFIGS = {"series": SeriesConfig, "gowers": GowersConfig}
