"""Tensor-name patterns that pick the parameter groups a merge or freeze acts on.

This module needs no numpy, so commands that only read or print patterns
(``revla schedule``) start without it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Selector:
    """Name patterns where ``*`` matches any character run, across dots.

    ``vision.dino.*`` therefore selects the whole subtree under that prefix.
    The selection is the union over patterns; no patterns selects nothing.
    Patterns come as a list or tuple: a bare string would otherwise split
    into one-character patterns, and a ``*`` among them selects everything.
    """

    patterns: tuple[str, ...]

    def __init__(self, patterns: list[str] | tuple[str, ...] = ()) -> None:
        if not isinstance(patterns, (list, tuple)):
            raise ValueError(f"selector patterns must be a list or tuple, got {patterns!r}")
        pats = tuple(patterns)
        for pat in pats:
            if not isinstance(pat, str) or not pat:
                raise ValueError(f"malformed selector pattern: {pat!r} (must be a non-empty string)")
        object.__setattr__(self, "patterns", pats)

    def matches(self, name: str) -> bool:
        return any(_compile_pattern(pat).fullmatch(name) for pat in self.patterns)


@lru_cache(maxsize=256)
def _compile_pattern(pattern: str) -> re.Pattern[str]:
    return re.compile(".*".join(re.escape(part) for part in pattern.split("*")))
