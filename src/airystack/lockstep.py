"""Bracket searches in lockstep: one call of f per round for all brackets.

Sweep peaks (golden section) and resonance roots (bisection) run here.  A
plan lists a predicted path to closure plus the point that the other way
of its first undecided step needs, so each round takes every open bracket
two steps or more.  Steps read f only from a bracket's one store of values,
so with an elementwise, pure f every bracket ends where one f call per step
would take it, bit for bit: a wrong prediction costs a round, not an answer.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []


def refine(f, brackets, plan) -> None:
    """Run the searches until no plan lists a point.

    Each bracket is a list: item 0 its dict x -> f(x), the one store of its
    values (seeded by the search), then its state, which holds no f-value.
    plan(bracket) walks the steps its values decide, stores the state it
    reaches and returns the points of its next round (none once closed).
    """
    while plans := [(s, p) for s in brackets if (p := plan(s))]:
        values = iter(f(np.array([x for _, p in plans for x in p])).tolist())
        # zip stops at the end of each plan: every bracket gets its own values
        for s, p in plans:
            s[0].update(zip(p, values))
        brackets = [s for s, _ in plans]
