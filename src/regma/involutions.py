"""The rank-6 six-involutions theorem: six distinct nonzero F2 functionals
such that every ground element lies in at least four of their kernels, so
the total fixed-set codimension is at most twice the total multiplicity for
any weight vector.

The functionals are found by one pruned search over the 63 nonzero
functionals on F2^6, whatever the matroid's construction. Ranks below six
need no padding: a functional on the unused coordinates vanishes on every
column, so the search finds those too. An InvolutionSet, whether found
here or read from a certificate, is only a claim: verify_involutions
recomputes every kernel count from the columns and is the one check that
judges it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .exact import Rat
from .matroid import BinaryMatroid


@dataclass(frozen=True)
class InvolutionSet:
    """A claimed certificate: functionals on F2^6 (bitmasks) and their
    per-element kernel counts. Nothing is checked on construction;
    verify_involutions alone decides whether the claim holds (six distinct
    nonzero functionals, counts as stated and all at least four)."""

    vs: tuple[int, ...]
    counts: tuple[int, ...]


def _kernel_counts(cols: Sequence[int], vs: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(1 for v in vs if not (v & c).bit_count() & 1) for c in cols)


def six_involutions(m: BinaryMatroid) -> InvolutionSet:
    """Six involutions for a regular matroid of rank <= 6, by the pruned
    search; exhaustion without a witness signals a non-regular input."""
    if m.rank > 6:
        raise PreconditionError("six_involutions requires rank at most 6")
    found = _pruned_search(m.columns)
    if found is None:
        raise PreconditionError(
            "no six involutions exist; the input violates regularity")
    return InvolutionSet(found, _kernel_counts(m.columns, found))


def verify_involutions(m: BinaryMatroid, mult: Sequence[Rat],
                       s: InvolutionSet) -> tuple[bool, Rat, Rat]:
    """Check sum of fixed-set codimensions k_i = sum of mult over elements
    outside ker v_i against twice the total multiplicity. Not ok unless the
    six vectors are distinct functionals on F2^6 and the kernel counts,
    recomputed from the columns, equal s.counts and are all at least four."""
    if len(mult) != m.size:
        raise PreconditionError("one multiplicity per element")
    mult = [Fraction(x) for x in mult]
    if any(x < 0 for x in mult):
        raise PreconditionError("multiplicities must be nonnegative")
    cols = m.columns
    total = sum(mult, Fraction(0))
    ksum = Fraction(0)
    for v in s.vs:
        ksum += sum((mult[i] for i, c in enumerate(cols) if (v & c).bit_count() & 1),
                    Fraction(0))
    counts = _kernel_counts(cols, s.vs)
    sound = (len(set(s.vs)) == len(s.vs) == 6
             and all(1 <= v <= 63 for v in s.vs)
             and tuple(s.counts) == counts
             and all(c >= 4 for c in counts))
    return sound and ksum <= 2 * total, ksum, 2 * total


def _pruned_search(cols: Sequence[int]) -> tuple[int, ...] | None:
    """Exhaustive search over 6-subsets of the 63 nonzero functionals on
    F2^6 in increasing order, pruning as soon as an element fails three
    chosen functionals."""
    distinct = sorted(set(cols))
    vectors = list(range(1, 64))
    fails = {v: [i for i, c in enumerate(distinct) if (v & c).bit_count() & 1]
             for v in vectors}
    chosen: list[int] = []
    fail_count = [0] * len(distinct)

    def extend(start: int) -> tuple[int, ...] | None:
        if len(chosen) == 6:
            return tuple(chosen)
        for v in vectors[start - 1:]:
            bad = False
            touched = []
            for i in fails[v]:
                fail_count[i] += 1
                touched.append(i)
                if fail_count[i] > 2:
                    bad = True
            if not bad:
                chosen.append(v)
                got = extend(v + 1)
                if got is not None:
                    return got
                chosen.pop()
            for i in touched:
                fail_count[i] -= 1
        return None

    return extend(1)
