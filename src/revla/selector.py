"""Tensor-name patterns that pick the parameter groups a merge or freeze acts on.

This module needs no numpy, so commands that only read or print patterns
(``revla schedule``) start without it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Selector:
    """Name patterns where ``*`` matches any run of characters, dots and newlines included.

    Every other character is literal, so ``vision.dino.*`` selects the subtree
    under that prefix. The selection is the union over patterns; no patterns
    selects nothing. Patterns come as a list or tuple: a bare string would split
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
        union = "|".join(".*".join(map(re.escape, pat.split("*"))) for pat in pats) or "(?!)"
        # not a dataclass field, so equality, hash and repr stay on the patterns
        object.__setattr__(self, "_regex", re.compile(union, re.DOTALL))

    def matches(self, name: str) -> bool:
        return self._regex.fullmatch(name) is not None
