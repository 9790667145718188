"""Shared test helpers."""

from __future__ import annotations


class ScriptedRandom:
    """random.Random stand-in replaying queued draws.

    random() pops from `randoms`, randrange(n) pops from `randranges`
    (validating the scripted value fits the requested range).  _randbelow(n),
    which the simulation calls for randrange(n) draws, pops from the same
    queue.  Running out of scripted values fails the test loudly.
    """

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self) -> float:
        if not self.randoms:
            raise AssertionError("test consumed more random() draws than scripted")
        return self.randoms.pop(0)

    def randrange(self, n: int) -> int:
        if not self.randranges:
            raise AssertionError("test consumed more randrange() draws than scripted")
        value = self.randranges.pop(0)
        assert 0 <= value < n, f"scripted randrange value {value} out of range({n})"
        return value

    _randbelow = randrange

    def exhausted(self) -> bool:
        return not self.randoms and not self.randranges
